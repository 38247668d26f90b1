GO ?= go

.PHONY: all build test race fuzz-smoke bench profile tables \
	cluster-up cluster-down

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzRequestPackageUnmarshal -fuzztime 20s ./internal/core
	$(GO) test -run NONE -fuzz FuzzReplyUnmarshal -fuzztime 10s ./internal/core
	$(GO) test -run NONE -fuzz FuzzNormalize -fuzztime 10s ./internal/attr
	$(GO) test -run NONE -fuzz FuzzMuxFrame -fuzztime 10s ./internal/broker/transport
	$(GO) test -run NONE -fuzz FuzzHello -fuzztime 10s ./internal/broker/transport
	$(GO) test -run NONE -fuzz FuzzWALReplay -fuzztime 10s ./internal/broker/wal
	$(GO) test -run NONE -fuzz FuzzHandoffUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzSweepQueryUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzSweepResultUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzCodecUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzTokenUnmarshal -fuzztime 10s ./internal/auth

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Profile the submit/sweep hot path; `RackSweep` also selects
# BenchmarkRackSweepScreening, the rack scan at the friend-1rack (racked=5000)
# and sweep-churn (racked=50000) workloads' sizes, and
# BenchmarkTransportRoundTrip is one caller's sequential calls in
# the submit-storm workload's shape. Inspect with `go tool pprof cpu.pprof`
# (or mem.pprof). bench.test is kept so pprof can resolve symbols.
profile:
	$(GO) test -run '^$$' -bench 'BrokerSubmitDurable|RackSweep|TransportSubmitPipelined|TransportRoundTrip' -benchtime 2s \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o bench.test .
	@echo wrote cpu.pprof, mem.pprof, bench.test

tables:
	$(GO) run ./cmd/benchtables

# Local 3-rack replicated cluster (docker-compose.yml): durable racks r0-r2
# on 127.0.0.1:7117-7119 with ops endpoints on 9117-9119. See
# docs/OPERATIONS.md for the drive-it tour.
cluster-up:
	docker compose up --build -d
	@echo "cluster up: racks on 7117-7119, metrics on http://127.0.0.1:9117/metrics (9118, 9119)"

cluster-down:
	docker compose down -v
