"""Shared pieces of the input-file fuzzers.

Every reader fuzzer mutates a real file and checks that the mutant either
parses or fails with ``path:`` or ``path:line:``, and never with a traceback.
"""

from hypothesis import HealthCheck, settings, strategies as st

# The fuzzers rewrite one file under pytest's ``tmp_path`` per example, so
# sharing that function-scoped fixture across examples is safe.
READER_FUZZ = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def line_edits(records, args):
    """Lists of edits to a record file: delete, duplicate, replace or insert
    a line, swap one token, or put a byte that is not UTF-8 into a line."""
    edit = st.tuples(
        st.sampled_from(["delete", "duplicate", "replace", "insert", "token", "byte"]),
        st.integers(0, 40),
        st.sampled_from(records),
        st.lists(st.sampled_from(args), max_size=3),
    )
    return st.lists(edit, min_size=1, max_size=4)


def apply_line_edits(data: bytes, edits) -> bytes:
    lines = data.splitlines()
    for op, at, record, args in edits:
        at %= len(lines) + 1
        text = " ".join([record, *args]).encode()
        if op == "insert" or at == len(lines):
            lines.insert(at, text)
        elif op == "delete":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "replace":
            lines[at] = text
        elif op == "token":
            words = lines[at].split() or [b""]
            words[len(args) % len(words)] = (args or [record])[0].encode()
            lines[at] = b" ".join(words)
        else:
            lines[at] = lines[at][: len(text)] + b"\xff" + lines[at][len(text) :]
    return b"\n".join(lines) + b"\n"
