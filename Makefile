# Convenience targets for the Locus transaction facility reproduction.

GO ?= go

.PHONY: all test race bench chaos vtime telemetry probe trace experiments examples tools clean

all: test

test:            ## run the full test suite
	$(GO) test ./...

race:            ## run the suite under the race detector
	$(GO) test -race ./...

bench:           ## regenerate every paper table/figure via testing.B
	$(GO) test -bench=. -benchmem .

chaos:           ## 20-seed fault-injection sweep with the section 5 audit
	$(GO) run ./cmd/locuschaos -sweep 20 -duration 1s
	$(GO) run ./cmd/locuschaos -fastpaths -schedule 150ms:partition:2,450ms:heal,700ms:partition:3,1000ms:heal -duration 2s
	$(GO) run ./cmd/locuschaos -leases -schedule 200ms:partition:2,600ms:heal,900ms:partition:3,1300ms:heal -duration 2s

vtime:           ## 100-seed virtual-clock chaos sweep + vtime bench (DESIGN.md section 11)
	$(GO) run ./cmd/locuschaos -vtime -sweep 100 -duration 2s
	$(GO) run ./cmd/locuschaos -vtime -sweep 100 -duration 2s -groupcommit 5ms -fastpaths
	$(GO) run ./cmd/locusbench -concurrent -vtime

telemetry:       ## utilization + critical-path report, then verify the golden snapshot
	$(GO) run ./cmd/locusmon -clients 4 -txns 8
	$(GO) run ./cmd/locusbench -vtime -telemetry -clients 1 -txns 8 -json tele-now.json
	diff TELEMETRY_GOLDEN.json tele-now.json && rm tele-now.json

probe:           ## exhaustive crash-point matrix (DESIGN.md section 9), race-enabled
	$(GO) run -race ./cmd/locusprobe -forensics probe-forensics.txt
	$(GO) test -race ./internal/crashprobe ./internal/audit

trace:           ## causal timeline of a small cross-site workload + Chrome export
	$(GO) run ./cmd/locustrace -txns 3
	$(GO) run ./cmd/locustrace -txns 3 -chrome /tmp/locustrace.json

experiments:     ## print every experiment as paper-style tables
	$(GO) run ./cmd/locusbench

experiments.md:  ## refresh the measured tables in EXPERIMENTS.md format
	$(GO) run ./cmd/locusbench -markdown

examples:        ## run all runnable examples
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/migration
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/sharedlog
	$(GO) run ./examples/minidb

tools:           ## build the command-line tools
	$(GO) build ./cmd/...

cover:           ## coverage summary per package
	$(GO) test -cover ./internal/...
