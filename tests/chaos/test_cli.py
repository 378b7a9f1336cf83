"""The chaos sub-CLI refuses bad input in one line, never a traceback."""

import pytest

from repro.chaos.cli import main
from repro.chaos.scenario import injected_deadlock_scenario
from repro.chaos.shrink import write_minimal


@pytest.fixture
def minimal_json(tmp_path):
    return write_minimal(tmp_path, injected_deadlock_scenario(0), [], "deadlock")


def refusal(argv) -> str:
    with pytest.raises(SystemExit) as raised:
        main(argv)
    message = raised.value.code
    assert isinstance(message, str) and "\n" not in message
    return message


@pytest.mark.parametrize("command", ["replay", "shrink"])
def test_a_minimal_record_is_not_a_bundle(command, minimal_json):
    message = refusal([command, str(minimal_json)])
    assert message.startswith(f"chaos {command}: ")
    assert "not a chaos replay bundle (kind 'chaos-minimal')" in message


@pytest.mark.parametrize("command", ["replay", "shrink"])
def test_a_missing_bundle_is_refused(command, tmp_path):
    message = refusal([command, str(tmp_path / "nowhere" / "bundle.json")])
    assert "No such file or directory" in message


def test_an_empty_campaign_is_refused(tmp_path):
    message = refusal(["run", "--count", "0", "--output-dir", str(tmp_path)])
    assert message == "--count must be at least 1"
    assert not any(tmp_path.iterdir())
