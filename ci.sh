#!/usr/bin/env bash
# CI entry point: formatting, vet, tier-1 build+test, the race detector
# over the whole module, and a fault-injection smoke pass. Every test
# invocation carries a timeout so a wedged cancellation path fails the
# build instead of hanging it. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== tier-1: build + test =="
go build ./...
go test -timeout 120s ./...

echo "== race detector =="
# The engine package gets an explicit pass first: the sharded plan cache,
# singleflight and CostBatch worker pool are the repo's hottest
# concurrent code and must fail fast and loud on a data race.
go test -race -timeout 300s -count=1 ./internal/engine
# The tracer is written to from every pipeline goroutine (rollout pools,
# measurement cells, cost batches) while /v1/traces reads it: its own
# explicit race pass keeps that contract loud.
go test -race -timeout 300s -count=1 ./internal/trace
# The job log is appended from every worker while replay/compaction
# rewrites segments, and the admission controller is hit by every
# submit: both are lock-heavy by design and must prove it under -race.
go test -race -timeout 300s -count=1 ./internal/joblog ./internal/admission
# The GEMM kernels carry a bit-identity contract: blocked/fused
# forward and backward must match the naive k-ascending reference
# exactly, on odd shapes and across worker counts, with the race
# detector watching the fan-out. Dense.ApplyCols must match per-column
# Apply calls bit for bit, and the retained-arena gauge must fall both on
# trim and when a graph is collected (its finalizer runs on another
# goroutine).
go test -race -timeout 300s -count=1 \
    -run 'TestGEMM|TestApplyColsMatchesPerColumnApply|TestArenaTrimReleasesOneOffPeak|TestArenaRetainedFallsWhenGraphCollected' \
    ./internal/nn
go test -race -timeout 300s ./...

echo "== parallel scaling gate =="
# The RLTrain parallel-regression gates, under -race: a 4-worker epoch
# must not run slower than a 1-worker epoch, and widening the rollout
# pool must not multiply allocations (the per-worker scratch dividend).
go test -race -timeout 300s -count=1 \
    -run 'TestRLTrainScalingGate|TestRLTrainAllocsFlatAcrossWorkers' \
    ./internal/core

echo "== benchmark smoke =="
# One iteration of every CostBatch benchmark: catches bit-rot in the
# benchmark harness and any pathological slowdown of the costing path.
go test -run='^$' -bench=CostBatch -benchtime=1x -timeout 120s ./internal/engine
# Allocation-regression smoke: BenchmarkRollout asserts a hard
# allocs-per-decode budget (the tensor arena's dividend) and fails the
# build if a change regresses past it.
go test -run='^$' -bench=Rollout -benchtime=1x -timeout 120s ./internal/core
# Telemetry allocation gates: the disabled path (no scope in context)
# and the enabled steady-state append must both stay zero-alloc, so
# instrumented hot loops cost nothing when nobody is looking.
go test -run='^$' -bench=Telemetry -benchtime=100x -timeout 120s ./internal/telemetry
go test -timeout 120s -count=1 -run 'TestAppendZeroAlloc' ./internal/telemetry
# What-if loop allocation gates: a steady-state advisor logits call on a
# reused, Reset graph, and a plan-cache miss on an already-analysed
# query, each held to the allocation count it makes today.
go test -timeout 120s -count=1 -run 'TestLogitsAllocBudget' ./internal/advisor
go test -timeout 120s -count=1 -run 'TestPlanMissAllocBudget' ./internal/engine

echo "== fault-injection smoke =="
# Drive the deterministic fault harness end to end: panic isolation,
# transient-error retry, cancellation, and checkpoint/resume.
go test -timeout 120s -count=1 \
    -run 'TestJobPanicIsolation|TestJobTransientRetry|TestJobCancelEndpoints|TestJobCheckpointResume' \
    ./internal/service
go test -timeout 120s -count=1 \
    -run 'TestCheckpointResumeEquivalence|TestRLTrainInjectedTransientError' \
    ./internal/core

echo "== trace endpoint smoke =="
# End-to-end observability check: a real job must yield a retrievable
# trace with a >=4-level span tree, and /metrics must serve all three
# exposition formats.
go test -timeout 300s -count=1 \
    -run 'TestJobTraceEndToEnd|TestMetricsFormats' \
    ./internal/service

echo "== crash-replay smoke =="
# Durability proof end to end: submit a job with -joblog/-spool armed,
# SIGKILL the process mid-epoch, restart on the same directories, and
# assert the job resumes and finishes bit-identical to an uninterrupted
# run. Plus the cancel/GC interplay: a canceled-then-GC'd job must not
# be resurrected by replay and must leak no goroutines (under -race).
go test -race -timeout 600s -count=1 \
    -run 'TestCrashReplayResume|TestJobLogReplayRestores|TestCancelGCNoResurrectionNoLeak' \
    ./internal/service

echo "== SSE smoke =="
# Streaming progress: a live job's SSE stream must deliver state/epoch/
# cell/result events in order, survive a mid-stream disconnect, and
# resume from Last-Event-ID without gaps or duplicates.
go test -race -timeout 300s -count=1 \
    -run 'TestSSEStreamAndResume' \
    ./internal/service

echo "== telemetry smoke =="
# The observability surface end to end: a real TRAP assessment must
# yield training/attack series over /v1/jobs/{id}/telemetry (JSON and
# CSV) with monotonic steps and per-epoch SSE telemetry events; the
# continuous profiler must capture, serve and prune slow-span profiles;
# and /version must report the build provenance.
go test -race -timeout 600s -count=1 \
    -run 'TestJobTelemetryEndToEnd|TestProfilerCapturesSlowSpan|TestVersionEndpoint' \
    ./internal/service

echo "== failover smoke =="
# Standby failover between real processes: a primary trapd child is
# SIGKILLed mid-training and the standby blocked on the job log's flock
# must finish the job exactly once, bit-identical, with a gap-free SSE
# resume; a SIGSTOPped primary must keep the lock. The joblog lock
# tests and the degraded-log drain ride along.
go test -race -timeout 300s -count=1 -run 'TestLock' ./internal/joblog
go test -race -timeout 600s -count=1 \
    -run 'TestStandbyTakeover|TestStandbySSEResumeAcrossTakeover|TestStandbyWaitsForStoppedPrimary|TestJobLogDegradedDraining|TestServeDropsStalledHeader' \
    ./internal/service

echo "ci: all green"
