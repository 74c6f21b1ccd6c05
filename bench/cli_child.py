"""Traced command-line child: python3 bench/cli_child.py SPANS_JSON ARGS...

Times `import specsample.cli`, wraps every layer as the traced library run
does, calls specsample.cli.main(ARGS) and writes its spans to SPANS_JSON
when main returns or raises.  Exits with main's code.
"""
import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    idx = rec.open("cli.import")
    import specsample.cli
    rec.close(idx)
    tracing.install(rec)
    try:
        return specsample.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
