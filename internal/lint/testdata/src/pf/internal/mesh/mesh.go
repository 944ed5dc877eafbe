// Package mesh exercises the poolflow analyzer's packet rule: packets are
// built only where Send parks them in the arena, nowhere else — including
// inside the package itself.
package mesh

type packet struct {
	dst, class int
}

type Mesh struct {
	arena []packet
}

func (m *Mesh) Send(dst int) int {
	//lint:allow poolflow Send is the arena's one construction site
	m.arena = append(m.arena, packet{dst: dst})
	return len(m.arena) - 1
}

func (m *Mesh) stray() packet {
	return packet{class: 1} // want `mesh packet composite literal bypasses the packet arena`
}
