"""The benchmark's tracer (perfbench/tracing.py) patches package names from
outside; it must find every one of them, and put every one back."""

import sys
from pathlib import Path

from pdlogic import cli, monitoring, textcheck
from pdlogic.atoms import atom
from pdlogic.monitoring import Utterance

from test_cli import SAMPLES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

PATCHED = [
    (cli, "expand_bounded"),
    (cli, "evaluate"),
    (textcheck, "expand_bounded"),
    (textcheck, "monitor"),
    (textcheck, "segment"),
    (textcheck, "_utterances"),
    (monitoring.MonitorSession, "feed"),
    (monitoring.MonitorSession, "finish"),
]


def test_install_then_uninstall(tmp_path):
    before = [getattr(owner, name) for owner, name in PATCHED]
    api = tracing.plain_api()
    tracer = tracing.Tracer(TimeoutError)
    saved = tracing.install(api, tracer)
    try:
        spec = api.load_referent_spec(SAMPLES / "violated.spec")
        text = (SAMPLES / "violated_doc.txt").read_text("utf-8")
        report = api.check_document(text, spec)
        session = api.MonitorSession(api.parse_temporal("[]<=2 she/her"))
        session.feed(Utterance(frozenset({atom("she/her")})))
        session.finish()
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("[]<=3 she/her\n", encoding="utf-8")
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text("she/her\n", encoding="utf-8")
        code = api.cli_main(["monitor", str(spec_file), str(trace_file)])
    finally:
        tracing.uninstall(saved)
    assert code == 0
    assert "textcheck.segment" not in tracer.calls
    assert tracer.counts["textcheck.utterances"] == len(report.trace)
    assert tracer.calls["monitoring.feed"] == len(report.trace) + 1
    assert tracer.calls["monitoring.evaluate"] == 1
    assert [getattr(owner, name) for owner, name in PATCHED] == before
