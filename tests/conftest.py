import sys

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # Fixed examples and no wall-clock deadline, so tier-1 runs the same
    # inputs every time and its duration stays bounded.
    settings.register_profile("cara", derandomize=True, deadline=None,
                              max_examples=80, database=None)
    settings.load_profile("cara")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests record one result line per criterion; echo them past
    # output capture so piped logs always show the margins
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
