#!/usr/bin/env bash
# The serving benchmark's one command (see benchmark/README.md):
#   benchmark/run.sh [--seed S] [--workloads a,b] [--trace] [--smoke]
# builds build-benchmark/ (Release), runs each workload in its own process,
# prints "workload metric value unit" lines and writes
# benchmark/out/results.json. It is benchmark/run.py under another name.
exec python3 "$(dirname "$0")/run.py" "$@"
