GO ?= go
FUZZTIME ?= 60s

.PHONY: build vet fmt-check cross test race chaos chaos-packed soak soak-full fuzz cover bench bench-e2e bench-compare experiments obs-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# 32-bit words and a second word kernel: the Montgomery tables pull
# math/big's addMulVVW by linkname, and the transport codec sizes values
# by BitLen and writes them a word at a time, so run the crypto packages, the
# protocol and the transport with W = 32 (386 runs natively on an amd64
# host) and vet the whole tree for arm64. The allocation bounds of
# protocol, transport and dgk (see test) run here at W = 32 as well.
cross:
	GOARCH=386 $(GO) test ./internal/mathutil ./internal/paillier ./internal/dgk ./internal/protocol ./internal/transport
	GOARCH=arm64 $(GO) vet ./...

# Tier 1. It includes the allocation bounds of a served query's hot path —
# protocol TestQueryAllocationBound (a paper64 RunPair query), transport
# TestRecvAllocations (one received frame), dgk TestKernelAllocs (each
# comparison round) and obs TestLookupAllocatesNothing (a metric lookup) —
# which `make cover` runs too. They skip under -race, whose bookkeeping
# allocates (dgk keeps only its zero-test bound there).
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos suite: full two-server deployments driven through seeded fault
# schedules (resets, stalls, partial writes) with a retry budget on the
# session, plus the ingestion-tree relay-death/re-homing scenario.
# Run under the race detector; every instance must either produce the
# correct label or fail cleanly.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/deploy/ ./internal/ingest/

# The same chaos suite with slot-packed submissions end to end: CHAOS_PACKED
# flips every test deployment to packed wire (packed submit frames, packed
# relay pre-sums, the blinded unpack round). Outcomes must be identical to
# the unpacked suite — the assertions do not change.
chaos-packed:
	CHAOS_PACKED=1 $(GO) test -race -count=1 -run 'TestChaos' -v ./internal/deploy/ ./internal/ingest/

# Continuous-operation soak: a serve-mode deployment streams 200 queries
# from concurrent tenants under the seeded chaos fault schedule with one
# epoch/key rotation mid-soak, under the race detector. The test asserts
# zero unclean failures, that the durable ε-ledger exactly equals an
# accountant replayed from the journaled per-query spends, and that both
# journals chain-verify (re-checked from the CLI with cmd/trace).
# SOAK_FULL=1 escalates to the full 1000-query soak (`make soak-full`).
soak:
	SOAK=1 SOAK_JOURNAL_DIR=$(CURDIR)/soak-journals \
		$(GO) test -race -count=1 -run 'TestSoakServe' -v -timeout 30m ./internal/deploy/
	$(GO) run ./cmd/trace -verify soak-journals/*.jsonl

soak-full:
	SOAK_FULL=1 SOAK_JOURNAL_DIR=$(CURDIR)/soak-journals \
		$(GO) test -race -count=1 -run 'TestSoakServe' -v -timeout 60m ./internal/deploy/
	$(GO) run ./cmd/trace -verify soak-journals/*.jsonl

# Fuzz the attack surfaces: the transport frame decoder, the peer-link
# handshake/session/participant frame decoders, the one user-connection
# handler every run serves clients with (arbitrary frame sequences: submit,
# done, admission, result-wait, junk), S2's end of the serve-control link
# (announce, epoch and drain frames against a model of its epochs), the
# key-file loader (never a panic; an accepted file reloads to equal bytes),
# the fault-spec parser, the fixed-base
# exponentiation kernels (differential against big.Int.Exp), the key owner's
# CRT Paillier and DGK encryptions (differential against the public paths),
# the crossing fold (decrypt-and-split equals the inputs at every slot shape
# and both slot bounds), the ciphertext sum (equal to the Mul+Mod chain at
# every run length, an out-of-range addend refused), the four ingest frame decoders (user and combined,
# packed and not: no panic, and whatever decodes re-encodes
# byte-identically), the one relay/server intake (arbitrary user and combined
# frame sequences: the covered set is the accepted members, never a user
# twice, a resent frame changes nothing, only documented refusal reasons),
# the packed group layout
# (no carry between slots at any feasible shape), the one ε state-file
# loader (never a panic, never fewer tenants than the file names, identical
# spend after a persist and reload) and the event journal's reader, verifier
# and torn-tail recovery (never a panic; a verified journal reopens and
# extends by exactly one record). One target per invocation (go fuzz
# requires it); FUZZTIME bounds each.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerFrames$$' -fuzztime $(FUZZTIME) ./internal/deploy/
	$(GO) test -run '^$$' -fuzz '^FuzzUserFrames$$' -fuzztime $(FUZZTIME) ./internal/deploy/
	$(GO) test -run '^$$' -fuzz '^FuzzCtlFrames$$' -fuzztime $(FUZZTIME) ./internal/deploy/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyFiles$$' -fuzztime $(FUZZTIME) ./internal/keystore/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultSpec$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzFixedBaseExp$$' -fuzztime $(FUZZTIME) ./internal/mathutil/
	$(GO) test -run '^$$' -fuzz '^FuzzMontMul$$' -fuzztime $(FUZZTIME) ./internal/mathutil/
	$(GO) test -run '^$$' -fuzz '^FuzzOwnKeyEncrypt$$' -fuzztime $(FUZZTIME) ./internal/paillier/
	$(GO) test -run '^$$' -fuzz '^FuzzFoldSlots$$' -fuzztime $(FUZZTIME) ./internal/paillier/
	$(GO) test -run '^$$' -fuzz '^FuzzSum$$' -fuzztime $(FUZZTIME) ./internal/paillier/
	$(GO) test -run '^$$' -fuzz '^FuzzOwnerBitEncrypt$$' -fuzztime $(FUZZTIME) ./internal/dgk/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeHalf$$' -fuzztime $(FUZZTIME) ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCombined$$' -fuzztime $(FUZZTIME) ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePackedHalf$$' -fuzztime $(FUZZTIME) ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePackedCombined$$' -fuzztime $(FUZZTIME) ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzIntake$$' -fuzztime $(FUZZTIME) ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzPackedJointLayout$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzLedgerLoad$$' -fuzztime $(FUZZTIME) ./internal/dp/
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime $(FUZZTIME) ./internal/obs/

# Coverage with a regression floor (scripts/coverage_baseline.txt); leaves
# the profile at results/coverage.out.
cover:
	./scripts/coverage_guard.sh

# Short benchmark pass: the Tables I-II benches, the argmax strategy
# ablation (tournament against the paper's all-pairs reference), the
# Paillier encryption, ciphertext sum and fixed-base table micro-benches
# (results/fixedbase_micro.txt) and the DGK comparison kernels and the
# crossing fold (results/dgk_micro.txt), one iteration each, so CI catches
# bench-harness rot without long runs. The measured record of this
# repository is the end-to-end benchmark below.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkArgmaxStrategy|BenchmarkTable1ProtocolSteps|BenchmarkTable2MessageSizes|BenchmarkPaillierEnc|BenchmarkDGKCompare|BenchmarkPaillierFold' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkFixedBaseExp' -benchtime=1x ./internal/mathutil/
	$(GO) test -run '^$$' -bench 'BenchmarkPaillierSum' -benchtime=1x ./internal/paillier/

# The repository benchmark (BENCHMARK.json, bench/README.md): the real serve
# pair and relay tree over loopback at deployable key sizes, through the same
# entry point the benchmark driver uses. WORKLOAD empty runs all four;
# TRACE=0 is a timed run (end-to-end metrics), TRACE=1 a traced one
# (per-layer metrics). BENCH_ARGS passes anything else through, e.g.
# BENCH_ARGS='-repeat 5 -out /tmp/a' for a run set.
WORKLOAD ?=
SEED ?= 1
SECONDS ?= 20
TRACE ?= 0
BENCH_ARGS ?=
bench-e2e:
	bash bench/run.sh $(if $(WORKLOAD),-workload $(WORKLOAD)) -seed $(SEED) -seconds $(SECONDS) -trace $(TRACE) $(BENCH_ARGS)

# Compare two run sets written by `-repeat N -out DIR` (B against A):
# make bench-compare A=/tmp/a/runset.json B=/tmp/b/runset.json
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<runset.json> B=<runset.json>"; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# The accuracy tables and figures at the quick profile (cmd/experiments
# defaults), one file per experiment id, so two commits' outputs can be
# diffed: make experiments OUT=/tmp/a (about 10 s).
EXPERIMENT_IDS = table3 fig2 fig3 fig4 fig5 fig6 fig3eps
experiments:
	@test -n "$(OUT)" || { echo "usage: make experiments OUT=<dir>"; exit 2; }
	@mkdir -p $(OUT)
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
		$(GO) build -o "$$bin/experiments" ./cmd/experiments && \
		for id in $(EXPERIMENT_IDS); do \
			echo "$(OUT)/$$id.txt"; "$$bin/experiments" $$id > $(OUT)/$$id.txt || exit 1; \
		done

# End-to-end observability smoke test: two real server processes with the
# admin endpoint enabled, one full query, then scrape /metrics and /healthz.
obs-smoke:
	./scripts/obs_smoke.sh

ci: build vet fmt-check cross race bench
	$(MAKE) bench-e2e SECONDS=3 BENCH_ARGS=-smoke
	$(MAKE) obs-smoke
