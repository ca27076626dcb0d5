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
def tai_calls():
    """Count registrations on a TAI's slot lists: one append ("enter") and
    one remove ("exit") per outermost scope, whether `enter_scope` and
    `exit_scope` make them or a store makes them inline.

    Install it before any thread enters a scope on the TAI, since a
    thread's scope record binds its slot list at its first scope.
    """
    def install(tai) -> dict[str, int]:
        counts = {"enter": 0, "exit": 0}

        class CountingSlot(list):
            def append(self, epoch):
                counts["enter"] += 1
                super().append(epoch)

            def remove(self, epoch):
                counts["exit"] += 1
                super().remove(epoch)

        tai.slots[:] = [CountingSlot(slot) for slot in tai.slots]
        return counts
    return install


@pytest.fixture
def hook_slot_append():
    """Run a hook once, right before or right after the next append to one
    of a TAI's slot lists, that is, around the next scope registration.

    `install(tai, before)` returns `arm(hook)`.  Install it before any
    thread enters a scope on the TAI, as for `tai_calls`.
    """
    def install(tai, before: bool):
        armed = []

        class HookedSlot(list):
            def append(self, epoch):
                hook = armed.pop() if armed else None
                if hook is not None and before:
                    hook()
                super().append(epoch)
                if hook is not None and not before:
                    hook()

        tai.slots[:] = [HookedSlot(slot) for slot in tai.slots]
        return armed.append
    return install


@pytest.fixture
def hook_slots(monkeypatch):
    """Run a hook once, as a store's get next reads a region's slot dict:
    before the dict lookup, or after it.

    `install(store, hook, after=False)` swaps the store's `_slots` for
    hooked views of the same list, each of which looks its region's dict
    up on every read, as the store does, since a rebuild replaces it.
    """
    def install(store, hook, after: bool = False) -> None:
        armed = [hook]
        slots = store._slots

        class HookedSlots:
            def __init__(self, index):
                self.index = index

            def get(self, offset):
                run = armed.pop() if armed else None
                if run is not None and not after:
                    run()
                data = slots[self.index].get(offset)
                if run is not None and after:
                    run()
                return data

        hooked = [HookedSlots(index) for index in range(len(slots))]
        monkeypatch.setattr(store, "_slots", hooked)
    return install
