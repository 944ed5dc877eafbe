# corona-serve container image: one image serves both fleet roles — a
# worker by default, a coordinator when CORONA_MODE=coordinator (see
# docker-compose.yml for a 2-worker fleet). The build stage compiles
# static binaries (CGO off, no runtime deps) so the runtime stage is a
# bare alpine with a non-root user.
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/corona-serve ./cmd/corona-serve \
 && CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/corona-sweep ./cmd/corona-sweep

FROM alpine:3.20
RUN adduser -D -u 10001 corona \
 && mkdir -p /data && chown corona /data
COPY --from=build /out/corona-serve /out/corona-sweep /usr/local/bin/
USER corona
# Flags read CORONA_* env defaults (flag wins); containers bind all
# interfaces so the fleet and the host can reach them.
ENV CORONA_ADDR=0.0.0.0:8451
EXPOSE 8451
VOLUME /data
ENTRYPOINT ["corona-serve"]
