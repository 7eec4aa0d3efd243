import sys

import hypothesis

hypothesis.settings.register_profile(
    "rzero",
    deadline=None,
    max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("rzero")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one line per acceptance criterion, visible without -s
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "ACCEPTANCE_LINES", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines + getattr(module, "TIMING_LINES", []):
                    terminalreporter.write_line(line)
            break
