# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint analyze bench examples doc clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

# Repo-invariant static analysis (rules R1-R7, doc/LINT.md); CI runs this
# and fails on any unsuppressed hit or on a suppression-count increase
# versus tools/lint/allow_baseline.txt.
lint:
	dune build @lint

# Whole-program analysis (passes A1-A4, doc/LINT.md): call-graph passes
# for determinism taint, cancellation-poll coverage, domain safety, and
# failure-taxonomy reachability, gated per pass against
# tools/analysis/allow_baseline.txt.
analyze:
	dune build @analyze

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datacenter_bandwidth.exe
	dune exec examples/cloud_tasks.exe
	dune exec examples/router_memory.exe
	dune exec examples/trace_analysis.exe
	dune exec examples/power_capping.exe

# The captured artifacts referenced by EXPERIMENTS.md.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
