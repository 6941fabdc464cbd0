import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcontract import (
    ContractMenu,
    ParseError,
    QualitySampleSet,
    read_menu_csv,
    read_profile_csv,
    read_samples_csv,
    write_menu_csv,
    write_samples_csv,
)

# reader, header, two good rows
READERS = {
    "samples": (read_samples_csv, "xi", ["80.0", "90.5"]),
    "profile": (read_profile_csv, "type_index,theta,alpha", ["1,110.0,0.5", "2,140.0,0.5"]),
    "menu": (read_menu_csv, "type_index,L,R", ["1,0.0,0.0", "2,5.0,0.1"]),
}


def _cut_last_cell(row):
    return row.rsplit(",", 1)[0]


def _replace_last_cell(value):
    return lambda row: ",".join(row.split(",")[:-1] + [value])


# fault -> how the second good row is damaged
FAULTS = {
    "short row": _cut_last_cell,
    "extra cell": lambda row: row + ",1.0",
    "non-number": _replace_last_cell("abc"),
    "nan": _replace_last_cell("nan"),
    "inf": _replace_last_cell("inf"),
}


def _cases():
    for name, (_, header, (good, bad)) in READERS.items():
        yield pytest.param(name, "", 1, id=f"{name}-empty file")
        yield pytest.param(name, f"x\n{good}\n{bad}\n", 1, id=f"{name}-wrong header")
        for fault, damage in FAULTS.items():
            if fault == "short row" and name == "samples":
                continue  # a one-cell row cut short is an empty, skipped line
            # a blank line before the bad row: the reported line counts it
            text = f"{header}\n{good}\n\n{damage(bad)}\n"
            yield pytest.param(name, text, 4, id=f"{name}-{fault}")


@pytest.mark.parametrize("name,text,line", list(_cases()))
def test_bad_file_names_path_and_line(tmp_path, name, text, line):
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        READERS[name][0](path)
    assert (info.value.path, info.value.line) == (str(path), line)


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("good_rows", [0, 20_000])
def test_undecodable_bytes_name_the_path(tmp_path, name, good_rows):
    # at the start of the file, and past the first block the reader decodes
    _, header, (good, _) = READERS[name]
    path = tmp_path / f"{name}.csv"
    body = (header + "\n" + (good + "\n") * good_rows).encode()
    path.write_bytes(body + b"\xff\n" if good_rows else b"\xff\xfe" + body)
    with pytest.raises(ParseError, match="cannot decode text") as info:
        READERS[name][0](path)
    assert (info.value.path, info.value.line) == (str(path), None)


@pytest.mark.parametrize("name", READERS)
def test_blank_lines_are_skipped(tmp_path, name):
    reader, header, rows = READERS[name]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(header + "\n" + "\n".join(rows) + "\n")
    spaced.write_text(header + "\n\n" + "\n\n\n".join(rows) + "\n\n")
    a, b = reader(plain), reader(spaced)
    for field in ("samples", "thetas", "alphas", "latencies", "rewards"):
        if hasattr(a, field):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestTypeIndex:
    """Indexed files must number their rows 1..I once each, in any order."""

    @pytest.mark.parametrize(
        "rows,line",
        [
            (["1,5.0,0.1", "1,0.0,0.0", "2,7.0,0.2"], 3),  # repeated
            (["1,0.0,0.0", "3,7.0,0.2"], 3),  # 2 missing
            (["1,0.0,0.0", "1.5,7.0,0.2"], 3),  # not an integer
            (["0,0.0,0.0", "1,7.0,0.2"], 2),  # below 1
        ],
    )
    @pytest.mark.parametrize("name", ["menu", "profile"])
    def test_bad_index_names_its_line(self, tmp_path, name, rows, line):
        reader, header, _ = READERS[name]
        path = tmp_path / "indexed.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as info:
            reader(path)
        assert (info.value.path, info.value.line) == (str(path), line)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "menu.csv"
        path.write_text("type_index,L,R\n2,7.0,0.2\n1,5.0,0.1\n")
        menu = read_menu_csv(path)
        np.testing.assert_array_equal(menu.latencies, [5.0, 7.0])
        np.testing.assert_array_equal(menu.rewards, [0.1, 0.2])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


finite = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]


class TestRoundTrip:
    """Written reals read back bit for bit."""

    @given(values=st.lists(finite, min_size=1, max_size=40))
    @example(values=EDGES)
    @settings(max_examples=80, deadline=None)
    def test_samples(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("samples") / "samples.csv"
        write_samples_csv(QualitySampleSet(values), path)
        np.testing.assert_array_equal(_bits(read_samples_csv(path).samples), _bits(values))

    @given(
        pairs=st.lists(
            st.tuples(st.floats(min_value=0.0, allow_infinity=False), finite),
            min_size=1,
            max_size=20,
        )
    )
    @example(pairs=[(-0.0, -0.0), (5e-324, 1e308), (1e308, -1e308), (0.0, 1e-310)])
    @settings(max_examples=80, deadline=None)
    def test_menu(self, tmp_path_factory, pairs):
        latencies, rewards = zip(*pairs)
        path = tmp_path_factory.mktemp("menu") / "menu.csv"
        write_menu_csv(ContractMenu(latencies=latencies, rewards=rewards), path)
        back = read_menu_csv(path)
        np.testing.assert_array_equal(_bits(back.latencies), _bits(latencies))
        np.testing.assert_array_equal(_bits(back.rewards), _bits(rewards))
