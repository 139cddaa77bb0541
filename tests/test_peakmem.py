"""Smoke test of ``tools/peakmem.py`` on a small transfer run."""
import gc
import importlib.util
import json
import sys
from pathlib import Path

from test_cli import FAST_TRANSFER

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peakmem.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("peakmem", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peakmem_prints_the_three_metrics_and_the_sites_at_the_peak(tmp_path, capsys):
    peakmem = load_tool()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FAST_TRANSFER))
    assert peakmem.main([str(config), "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "vmhwm_setup_mb", "vmhwm_end_mb", "tracemalloc_peak_kb"]
    assert all(float(line.split()[1]) > 0 for line in lines[:3])
    assert lines[3].startswith("top sites live at call boundary")
    sites = lines[4:]
    assert 0 < len(sites) <= peakmem.TOP_SITES
    assert all(" KB " in site and " blocks " in site for site in sites)



class Cyclic:
    """Refers to itself and has a ``__del__``: only the cycle collector frees
    it, and freeing it calls Python code, which a profile hook counts."""

    def __init__(self):
        self.me = self

    def __del__(self):
        pass


def test_peakmem_site_runs_agree_with_garbage_left_over(tmp_path, capsys, monkeypatch):
    # Leftover garbage is freed by whichever collection comes first.  With
    # automatic collection off, the only one falls at the start of each
    # profiled run, so it lands inside the third run unless the tool has
    # collected before it.
    from richlab import cli

    peakmem = load_tool()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FAST_TRANSFER))
    cmd_run = cli.cmd_run

    def collecting_cmd_run(*args, **kwargs):
        if sys.getprofile() is not None:
            gc.collect()
        return cmd_run(*args, **kwargs)

    monkeypatch.setattr(cli, "cmd_run", collecting_cmd_run)
    garbage = [Cyclic() for _ in range(50)]
    del garbage
    gc.disable()
    try:
        assert peakmem.main([str(config), "--seed", "0"]) == 0
    finally:
        gc.enable()
    assert "top sites live at call boundary" in capsys.readouterr().out
