"""Smoke tests: every example script runs end-to-end and reaches its
headline conclusion (captured from stdout)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "GSim+ similarity matrix" in out
        assert "converged=True" in out

    def test_social_media_alignment(self):
        out = run_example("social_media_alignment.py")
        assert "3/3 communities matched" in out
        # Seed-user retrieval hits mostly the right community.
        retrieved = int(out.split("are Twitter broadcasters")[0].split()[-1].split("/")[0])
        assert retrieved >= 7

    def test_synonym_extraction(self):
        out = run_example("synonym_extraction.py")
        # The top candidate for each query is its true synonym.
        big_section = out.split("synonym candidates for 'big':")[1]
        assert big_section.strip().splitlines()[0].split()[0] == "large"
        small_section = out.split("synonym candidates for 'small':")[1]
        assert small_section.strip().splitlines()[0].split()[0] == "little"

    def test_web_anomaly_detection(self):
        out = run_example("web_anomaly_detection.py")
        assert "ranks #1" in out

    def test_index_and_retrieve(self):
        out = run_example("index_and_retrieve.py")
        assert "index built" in out
        assert "top-5 most similar cross-graph pairs" in out

    def test_content_aware_matching(self):
        out = run_example("content_aware_matching.py")
        assert "structure + content  100.0%" in out

