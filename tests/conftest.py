import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance verdict lines after output capture ends."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)


@pytest.fixture
def tai_calls(monkeypatch):
    """Count a TAI's enter and exit calls: one each per outermost scope."""
    def install(tai) -> dict[str, int]:
        counts = {"enter": 0, "exit": 0}
        for name in counts:
            original = getattr(tai, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(tai, name, counted)
        return counts
    return install
