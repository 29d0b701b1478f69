"""Differential + fuzz tests for the field-targeted proc(5) parsers.

``parse_pid_status`` no longer walks every line of a ``status`` file
into a dict, and ``parse_pid_stat`` no longer splits every field.  The
all-lines implementations they replaced live on here as the oracle: on
generated kernel-shaped text (any key order, missing and repeated
keys, keys that are prefixes of other keys, a ``Name`` that looks like
a field) both must agree, and on arbitrary text the parsers may only
ever raise their typed errors.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CpuSetError, ProcFSError, ProcParseError
from repro.procfs.parsers import (
    TaskStat,
    TaskStatus,
    parse_pid_stat,
    parse_pid_status,
)
from repro.topology import CpuSet


# -- the oracle: the parsers as they were before the rewrite ------------------
def _ref_status_int(fields, key, default=None):
    if key not in fields:
        if default is not None:
            return default
        raise ProcParseError(f"status missing field {key!r}")
    value = fields[key].split()[0]
    try:
        return int(value)
    except ValueError as exc:
        raise ProcParseError(f"bad integer for {key!r}: {value!r}") from exc


def reference_parse_pid_status(text):
    fields = {}
    for line in text.splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    if "State" not in fields:
        raise ProcParseError("status missing State")
    state_letter = fields["State"].split()[0]
    cpus = fields.get("Cpus_allowed_list")
    if cpus is not None:
        allowed = CpuSet.from_list(cpus)
    elif "Cpus_allowed" in fields:
        allowed = CpuSet.from_mask(fields["Cpus_allowed"])
    else:
        allowed = CpuSet()
    return TaskStatus(
        name=fields.get("Name", "?"),
        state=state_letter,
        tgid=_ref_status_int(fields, "Tgid"),
        pid=_ref_status_int(fields, "Pid"),
        vm_rss_kib=_ref_status_int(fields, "VmRSS", default=0),
        vm_size_kib=_ref_status_int(fields, "VmSize", default=0),
        threads=_ref_status_int(fields, "Threads"),
        cpus_allowed=allowed,
        voluntary_ctxt_switches=_ref_status_int(
            fields, "voluntary_ctxt_switches", default=0
        ),
        nonvoluntary_ctxt_switches=_ref_status_int(
            fields, "nonvoluntary_ctxt_switches", default=0
        ),
    )


def reference_parse_pid_stat(text):
    text = text.strip()
    try:
        lparen = text.index("(")
        rparen = text.rindex(")")
    except ValueError as exc:
        raise ProcParseError("malformed stat line") from exc
    rest = text[rparen + 1 :].split()
    if len(rest) < 37:
        raise ProcParseError("too few fields")
    try:
        return TaskStat(
            pid=int(text[:lparen].strip()),
            comm=text[lparen + 1 : rparen],
            state=rest[0],
            minflt=int(rest[7]),
            majflt=int(rest[9]),
            utime=int(rest[11]),
            stime=int(rest[12]),
            num_threads=int(rest[17]),
            starttime=int(rest[19]),
            vsize=int(rest[20]),
            rss_pages=int(rest[21]),
            processor=int(rest[36]),
        )
    except (ValueError, IndexError) as exc:
        raise ProcParseError("unparsable stat line") from exc


def outcome(parse, text, errors):
    """What a parser made of ``text``: its record, or "rejected"."""
    try:
        return parse(text)
    except errors:
        return "rejected"


#: the oracle indexes ``"".split()[0]`` on an empty value (IndexError);
#: the parsers under test may raise nothing but their typed errors
ORACLE_ERRORS = (ProcFSError, CpuSetError, IndexError)
TYPED_ERRORS = (ProcParseError, CpuSetError)


def assert_same(parse, reference, text):
    assert outcome(parse, text, TYPED_ERRORS) == outcome(
        reference, text, ORACLE_ERRORS
    ), text


# -- generated status texts ---------------------------------------------------
# one line per entry, so nothing str.splitlines() would split on
_NAME_CHARS = st.characters(
    codec="utf-8", exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
)
_names = st.one_of(
    st.text(_NAME_CHARS, max_size=15),
    st.sampled_from(
        [
            "python3",
            "my app",
            "a:b",
            "State: Z (zombie)",
            "Tgid:\t99",
            "x Pid: 7",
            "Cpus_allowed_list:\t0-3",
            "kworker/3:1H",
            "w\\xff\\xfe-rk",
        ]
    ),
)
_counts = st.integers(0, 2**63 - 1).map(str)
_kib = st.builds(
    lambda n, pad, unit: f"{n:>{pad}}{unit}",
    st.integers(0, 2**40),
    st.integers(1, 9),
    st.sampled_from([" kB", "\tkB", ""]),
)
_cpu_sets = st.frozensets(st.integers(0, 300), max_size=12).map(CpuSet)
_VALUES = {
    "Name": _names,
    "State": st.sampled_from(
        ["R (running)", "S (sleeping)", "D (disk sleep)", "t (tracing stop)",
         "Z (zombie)", "I (idle)", "S"]
    ),
    "Tgid": _counts,
    "Pid": _counts,
    "VmSize": _kib,
    "VmRSS": _kib,
    "Threads": _counts,
    "Cpus_allowed": _cpu_sets.map(lambda cs: cs.to_mask()),
    "Cpus_allowed_list": _cpu_sets.map(lambda cs: cs.to_list()),
    "voluntary_ctxt_switches": _counts,
    "nonvoluntary_ctxt_switches": _counts,
}
#: lines the parser must look past — several are a wanted key plus or
#: minus a few characters
_OTHER_LINES = [
    "Umask:\t0022", "Ngid:\t0", "PPid:\t1", "TracerPid:\t0", "NSpid:\t41",
    "NStgid:\t41", "Uid:\t0\t0\t0\t0", "FDSize:\t64", "VmPeak:\t  9 kB",
    "VmHWM:\t  9 kB", "VmRSSx:\t77 kB", "RssAnon:\t4 kB", "xThreads:\t9",
    "Threads_max:\t9", "SigQ:\t0/1", "Mems_allowed:\t1",
    "Mems_allowed_list:\t0", "Cpus_allowed_list_old:\t5", "Cpus_allowed_:\t5",
    "involuntary_ctxt_switches:\t5", "voluntary_ctxt_switches_total:\t5",
    "State", "no colon here", "", ":", ": :",
]
_SEPARATORS = st.sampled_from(["\t", " ", "", "\t  ", "   \t"])
_TRAILERS = st.sampled_from(["", "", " ", "\t"])


@st.composite
def status_texts(draw):
    lines = []
    for key, values in _VALUES.items():
        # mostly once; sometimes missing, sometimes repeated with
        # another value (of a repeated key the last line counts)
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2, 3]))):
            value = "" if draw(st.integers(0, 19)) == 0 else draw(values)
            lines.append(f"{key}:{draw(_SEPARATORS)}{value}{draw(_TRAILERS)}")
    lines += draw(st.lists(st.sampled_from(_OTHER_LINES), max_size=8))
    if draw(st.booleans()):  # kernel order is a habit, not a promise
        lines = draw(st.permutations(lines))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


class TestStatusDifferential:
    @settings(max_examples=400, deadline=None)
    @given(status_texts())
    def test_agrees_with_all_lines_parser(self, text):
        assert_same(parse_pid_status, reference_parse_pid_status, text)

    def test_generator_reaches_both_outcomes(self):
        """The strategy is no use if everything it builds is rejected."""
        seen = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(status_texts())
        def run(text):
            result = outcome(parse_pid_status, text, TYPED_ERRORS)
            seen.add("rejected" if result == "rejected" else "parsed")

        run()
        assert seen == {"parsed", "rejected"}

    @pytest.mark.parametrize(
        "text, expect",
        [
            # a prefix of a wanted key is not that key
            ("State:\tS\nTgid:\t1\nPid:\t2\nThreads:\t1\nCpus_allowed:\t3\n",
             dict(cpus_allowed=CpuSet([0, 1]))),
            ("State:\tS\nTgid:\t1\nPid:\t2\nThreads:\t1\nCpus_allowed:\tf\n"
             "Cpus_allowed_list:\t2\n", dict(cpus_allowed=CpuSet([2]))),
            ("State:\tS\nTgid:\t1\nPid:\t2\nThreads:\t1\n"
             "nonvoluntary_ctxt_switches:\t9\n",
             dict(voluntary_ctxt_switches=0, nonvoluntary_ctxt_switches=9)),
            ("State:\tS\nTgid:\t1\nPid:\t2\nThreads:\t1\n"
             "voluntary_ctxt_switches:\t8\n",
             dict(voluntary_ctxt_switches=8, nonvoluntary_ctxt_switches=0)),
            # a Name that looks like other fields changes none of them
            ("Name:\tState: Z Tgid: 5\nState:\tR (running)\nTgid:\t1\nPid:\t2\n"
             "Threads:\t1", dict(name="State: Z Tgid: 5", state="R", tgid=1)),
            # any order, no trailing newline, last duplicate wins
            ("Threads:\t4\nPid:\t2\nPid:\t3\nTgid:\t1\nState:\tD (disk sleep)",
             dict(pid=3, threads=4, state="D", name="?")),
        ],
    )
    def test_named_cases(self, text, expect):
        status = parse_pid_status(text)
        assert status == reference_parse_pid_status(text)
        for field, value in expect.items():
            assert getattr(status, field) == value

    @pytest.mark.parametrize("missing", ["State", "Tgid", "Pid", "Threads"])
    def test_required_fields_stay_required(self, missing):
        lines = ["State:\tS", "Tgid:\t1", "Pid:\t2", "Threads:\t3"]
        text = "\n".join(ln for ln in lines if not ln.startswith(missing))
        with pytest.raises(ProcParseError, match=missing):
            parse_pid_status(text)

    @pytest.mark.parametrize(
        "bad", ["Tgid:\tx1", "Pid:\t", "Threads:\t0x10", "VmRSS:\tlots kB",
                "State:\t", "voluntary_ctxt_switches:\t-",
                # the one place stricter than the oracle, which took the
                # first token: proc(5) has a lone integer on these lines
                "Tgid:\t1 junk"]
    )
    def test_bad_values_are_parse_errors(self, bad):
        lines = ["State:\tS", "Tgid:\t1", "Pid:\t2", "Threads:\t3", bad]
        with pytest.raises(ProcParseError):
            parse_pid_status("\n".join(lines) + "\n")

    def test_one_cpuset_per_distinct_mask_text(self):
        """The memo hands out one immutable CpuSet per mask text."""
        text = "State:\tS\nTgid:\t1\nPid:\t2\nThreads:\t1\nCpus_allowed_list:\t{}\n"
        first = parse_pid_status(text.format("0-3,8"))
        again = parse_pid_status(text.format("0-3,8"))
        other = parse_pid_status(text.format("0-3"))
        assert first.cpus_allowed is again.cpus_allowed
        assert first.cpus_allowed == CpuSet([0, 1, 2, 3, 8])
        assert other.cpus_allowed == CpuSet([0, 1, 2, 3])
        with pytest.raises(CpuSetError):  # errors are not memoised
            parse_pid_status(text.format("3-0"))
        with pytest.raises(CpuSetError):
            parse_pid_status(text.format("3-0"))


# -- arbitrary text -----------------------------------------------------------
_KEYED_JUNK = st.lists(
    st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        st.sampled_from(list(_VALUES) + ["", "Pids", "\tState"]),
        st.sampled_from([":", ":\t", " :", ""]),
        st.text(max_size=12),
    ),
    max_size=14,
).map("\n".join)


class TestOnlyTypedErrors:
    """Never IndexError/ValueError/KeyError: the fault classifier must
    see readable-but-malformed text as exactly that."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=200), _KEYED_JUNK))
    def test_status(self, text):
        outcome(parse_pid_status, text, TYPED_ERRORS)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=200),
            st.text(alphabet="0123456789 ()-xS\n", max_size=200),
        )
    )
    def test_stat(self, text):
        outcome(parse_pid_stat, text, (ProcParseError,))


# -- generated stat lines -----------------------------------------------------
@st.composite
def stat_lines(draw):
    comm = draw(st.text(st.characters(codec="utf-8"), max_size=15))
    comm = draw(st.sampled_from([comm, comm, "a) R (b", "(sd-pam)", "x y\nz"]))
    count = draw(st.sampled_from([50, 50, 50, 42, 39, 38, 37, 36, 20, 3, 0]))
    fields = [
        draw(st.sampled_from("RSDZTtI")),
        *draw(
            st.lists(
                st.integers(-1, 2**64).map(str), min_size=count, max_size=count
            )
        ),
    ]
    if fields[1:] and draw(st.integers(0, 9)) == 0:
        fields[draw(st.integers(1, len(fields) - 1))] = "nan"
    head = draw(st.sampled_from(["", "", " "]))
    tail = draw(st.sampled_from(["\n", "", " \n"]))
    return f"{head}{draw(st.integers(0, 2**22))} ({comm}) {' '.join(fields)}{tail}"


class TestStatDifferential:
    @settings(max_examples=300, deadline=None)
    @given(stat_lines())
    def test_agrees_with_all_fields_parser(self, text):
        assert_same(parse_pid_stat, reference_parse_pid_stat, text)


# -- the container's own /proc ------------------------------------------------
@pytest.mark.skipif(
    not pathlib.Path("/proc/self/task").exists(), reason="needs Linux /proc"
)
class TestRealProcAgreement:
    def test_every_thread_of_this_process(self):
        import threading

        release = threading.Event()
        parked = [
            threading.Thread(target=release.wait, args=(10.0,), daemon=True)
            for _ in range(3)
        ]
        for thread in parked:
            thread.start()
        try:
            checked = 0
            for task in pathlib.Path("/proc/self/task").iterdir():
                try:
                    stat = (task / "stat").read_text()
                    status = (task / "status").read_text()
                except OSError:
                    continue  # a thread of an earlier test just exited
                assert parse_pid_stat(stat) == reference_parse_pid_stat(stat)
                assert parse_pid_status(status) == reference_parse_pid_status(
                    status
                )
                assert parse_pid_status(status).pid == int(task.name)
                checked += 1
            assert checked >= 4
        finally:
            release.set()
            for thread in parked:
                thread.join(5.0)
