"""Smoke test of ``tools/peakmem.py`` on a small transfer run."""
import importlib.util
import json
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
