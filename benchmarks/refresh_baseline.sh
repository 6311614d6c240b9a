#!/usr/bin/env bash
# One-command refresh of the committed CI perf baselines.
#
# Re-runs, with the flags CI uses, every benchmark the CI regression
# gate (benchmarks/check_regression.py) compares against a committed
# baseline, overwriting
#   benchmarks/output/BENCH_BDD_ci_baseline.json
#   benchmarks/output/BENCH_MULTIOUT_ci_baseline.json
#   benchmarks/output/BENCH_SERVICE_ci_baseline.json
# Run it after an intentional perf change, inspect the diff, and commit
# the new baselines alongside the change.  Extra arguments are forwarded
# to bench_bdd.py only.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
python benchmarks/bench_bdd.py \
    --quick --label ci_baseline \
    --output benchmarks/output/BENCH_BDD_ci_baseline.json "$@"
python benchmarks/bench_multiout.py \
    --quick --label ci_baseline \
    --output benchmarks/output/BENCH_MULTIOUT_ci_baseline.json
python benchmarks/bench_service.py \
    --quick --chaos --label ci_baseline \
    --output benchmarks/output/BENCH_SERVICE_ci_baseline.json
echo "refreshed BENCH_BDD, BENCH_MULTIOUT and BENCH_SERVICE" \
     "ci_baseline.json in benchmarks/output/ — review and commit them."
