GO ?= go

# Perf trajectory knobs: BENCH_OUT is where `make bench-json` records the
# current numbers (bump the <n> when a PR moves the needle), BENCH_BASELINE
# is the checked-in point `make bench-compare` gates against.
BENCH_OUT ?= BENCH_10.json
BENCH_BASELINE ?= BENCH_10.json

.PHONY: all build test race fuzz-smoke bench bench-json bench-compare profile tables \
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
	$(GO) test -run NONE -fuzz FuzzMuxFrame -fuzztime 10s ./internal/broker/transport
	$(GO) test -run NONE -fuzz FuzzWALReplay -fuzztime 10s ./internal/broker/wal
	$(GO) test -run NONE -fuzz FuzzHandoffUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzSweepQueryUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzSweepResultUnmarshal -fuzztime 10s ./internal/broker
	$(GO) test -run NONE -fuzz FuzzTokenUnmarshal -fuzztime 10s ./internal/auth

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Perf trajectory: run the root benchmark suite and record it as
# $(BENCH_OUT) (name, ns/op, B/op, allocs/op per benchmark). CI runs the
# same pipeline at -benchtime 25x as a smoke test; regenerate at full
# benchtime before checking in a new trajectory point.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchtables -bench-json $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Old-vs-new perf gate: run the broker/transport bench smoke and fail on a
# >20% ns/op geomean regression (or allocs/op growth) against the
# checked-in $(BENCH_BASELINE). CI runs this on every push.
# Time-based benchtime, not a fixed -benchtime Nx: pool and WAL warm-up
# allocations only amortize out of allocs/op at high iteration counts, and
# the alloc gate is the sharp edge of the comparison.
bench-compare:
	$(GO) test -run '^$$' -bench 'Broker|Transport|RackSweep|Codec' -benchtime 0.5s -benchmem . \
		| $(GO) run ./cmd/benchtables -bench-compare $(BENCH_BASELINE)

# Profile the submit/sweep hot path; inspect with `go tool pprof cpu.pprof`
# (or mem.pprof). bench.test is kept so pprof can resolve symbols.
profile:
	$(GO) test -run '^$$' -bench 'BrokerSubmitDurable|RackSweep|TransportSubmitPipelined' -benchtime 2s \
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
