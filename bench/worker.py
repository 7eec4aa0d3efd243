"""One benchmark process: either the set-up probe or one cold job.

    python3 bench/worker.py setup
        import rzero, finish one R evaluation, print "ready"
    python3 bench/worker.py job WORKLOAD SEED JOB TRACE TINY [SPANS_PATH]
        run one job and print its result as one JSON line

Started by run.py, from the root of a checkout that holds ``src/rzero``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_rzero():
    sys.path.insert(0, str(SRC))
    import rzero

    if not Path(rzero.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rzero imported from {rzero.__file__}, not {SRC}")
    return rzero


def main(argv: list[str]) -> int:
    rzero = _import_rzero()
    if argv[0] == "setup":
        rzero.r_eval(complex(0.5, 100.0))
        print("ready", flush=True)
        return 0
    import json

    from jobs import run_job

    workload, seed, job, trace, tiny = argv[1:6]
    spans_path = argv[6] if len(argv) > 6 else None
    result = run_job(workload, int(seed), int(job), trace == "1", tiny == "1",
                     spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
