"""`tools/mem_sites.py` runs a shrunk workload under tracemalloc and lists
its allocation sites before the teardown."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\S.*)$")


def test_lists_the_top_sites_of_a_small_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_sites.py"),
         "--workload", "zipf-update-skiplist", "--keys", "300",
         "--seconds", "1", "--top", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert "zipf-update-skiplist, 300 keys, seed 1" in lines[0]
    rows = [ROW.match(line).groups() for line in lines[1:-1]]
    assert len(rows) == 6 and rows[-1][2] == "total traced"
    sizes = [int(size) for size, _, _ in rows[:-1]]
    assert sizes == sorted(sizes, reverse=True)
    assert 0 < sum(sizes) <= int(rows[-1][0])
    # The store's slots are live at the snapshot, so the sites name the
    # runtime's sources, relative to the checkout.
    assert any(site.startswith("src/tierheap/") for _, _, site in rows)
    # Then the objects the cyclic GC tracks: at least the skip list's 300
    # nodes and their link lists.
    label, tracked = lines[-1].split(": ")
    assert label == "gc-tracked objects" and int(tracked) > 600


def test_rejects_a_non_positive_key_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_sites.py"),
         "--workload", "zipf-read-hashmap", "--keys", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--keys" in proc.stderr
