"""Server process for the ``serve_ner`` workload.

Runs ``serving.make_server`` with the fixture masked-LM backend on an
ephemeral localhost port, prints the port on its first stdout line and
serves until SIGTERM.  With ``PERFBENCH_TRACE_DIR`` set it traces its
layers first.

    python3 -m perfbench.serve_main
"""

from __future__ import annotations

import os
import signal
import sys
import threading


def main() -> None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import trace

    if os.environ.get(trace.TRACE_DIR_ENV):
        trace.install()
        trace.recorder().autoflush = False  # written in the finally below
    from unsupervised_ner_ray.config import PipelineConfig
    from unsupervised_ner_ray.serving import make_server

    httpd = make_server(0, PipelineConfig(scorer_backend="fixture_mlm"))
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=httpd.shutdown).start())
    print(httpd.server_address[1], flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        rec = trace.recorder()
        if rec is not None:
            rec.flush()


if __name__ == "__main__":
    main()
