"""The test-only linter itself: what counts as a caller, and what not."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_test_only", ROOT / "tools" / "check_test_only.py"
)
linter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linter)

SEED = {
    "src/pkg/lib.py": (
        "def used(): pass\n"
        "def only_tested(): pass\n"
        "class Machine:\n"
        "    def numa_cpuset(self): pass\n"  # on the allow-list
    ),
    "src/pkg/app.py": "from pkg.lib import Machine, used\nused(Machine())\n",
    "tests/test_lib.py": "from pkg.lib import only_tested\n",
}


def scan(tmp_path, extra=None):
    """Seed a repository under ``tmp_path``; the names the tool lists."""
    for rel, text in {**SEED, **(extra or {})}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return [entry.rsplit(": ", 1)[1] for entry in linter.find_test_only(tmp_path)]


class TestWhatIsAUse:
    def test_a_def_named_only_by_a_test_is_flagged(self, tmp_path):
        assert scan(tmp_path) == ["only_tested"]

    def test_an_example_is_a_caller(self, tmp_path):
        assert scan(tmp_path, {
            "examples/demo.py": "import pkg.lib\npkg.lib.only_tested()\n",
        }) == []

    def test_a_benchmark_string_constant_is_a_caller(self, tmp_path):
        # benchmarks/e2e/tracing.py wraps a seam by its attribute name
        assert scan(tmp_path, {
            "benchmarks/trace.py": 'wrap(lib, "only_tested", "span")\n',
        }) == []

    def test_a_string_constant_in_src_is_not_a_caller(self, tmp_path):
        assert scan(tmp_path, {
            "src/pkg/comm.py": '_collective("only_tested", None)\n',
        }) == ["only_tested"]

    def test_a_package_reexport_is_not_a_caller(self, tmp_path):
        assert scan(tmp_path, {
            "src/pkg/__init__.py": "from pkg.lib import only_tested\n"
                                   '__all__ = ["only_tested"]\n',
        }) == ["only_tested"]

    def test_the_allow_list_exempts_its_names(self, tmp_path):
        assert "Machine.numa_cpuset" in linter.ALLOWED
        assert "Machine.numa_cpuset" not in scan(tmp_path)


class TestRealTree:
    def test_the_repository_scans_clean(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_test_only.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
