import hashlib
import json
from pathlib import Path

import pytest

from toricwonder import Arrangement, ParseError, ToricError, WeightedCharacter
from toricwonder.cli import main, parse_file

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_data"

DOUBLED_SQUARE = """\
# doubled square
name = doubled-square
rank = 2
char = [2, 0] ; 0
char = [0, 2] ; 0
char = [1, 1] ; 0
char = [1, -1] ; 0
"""

TWO_LINES = """\
rank = 2
char = [1, 1] ; 0
char = [1, -1] ; 0
"""


# the m = 12 families of the `poset` bench, the rank-3 root systems A3 and
# B3 of the `atlas` bench and the rank-2 B2 and C2 of the `query` bench, as
# perfbench/families.py writes them, so that tier-1 pins their reports on
# its own
FAMILIES = {
    "C3": """\
name = C3
rank = 3
char = [2, 0, 0] ; 0
char = [0, 2, 0] ; 0
char = [0, 0, 2] ; 0
char = [1, 1, 0] ; 0
char = [1, -1, 0] ; 0
char = [1, 0, 1] ; 0
char = [1, 0, -1] ; 0
char = [0, 1, 1] ; 0
char = [0, 1, -1] ; 0
""",
    "A3_tors": """\
name = A3 x {0, 1/3}
rank = 3
char = [1, 0, 0] ; 0
char = [1, 0, 0] ; 1/3
char = [1, 1, 0] ; 0
char = [1, 1, 0] ; 1/3
char = [1, 1, 1] ; 0
char = [1, 1, 1] ; 1/3
char = [0, 1, 0] ; 0
char = [0, 1, 0] ; 1/3
char = [0, 1, 1] ; 0
char = [0, 1, 1] ; 1/3
char = [0, 0, 1] ; 0
char = [0, 0, 1] ; 1/3
""",
    "G2_tors": """\
name = G2 x {0, 1/3}
rank = 2
char = [1, 0] ; 0
char = [1, 0] ; 1/3
char = [0, 1] ; 0
char = [0, 1] ; 1/3
char = [1, 1] ; 0
char = [1, 1] ; 1/3
char = [2, 1] ; 0
char = [2, 1] ; 1/3
char = [3, 1] ; 0
char = [3, 1] ; 1/3
char = [3, 2] ; 0
char = [3, 2] ; 1/3
""",
    "A3": """\
name = A3
rank = 3
char = [1, 0, 0] ; 0
char = [1, 1, 0] ; 0
char = [1, 1, 1] ; 0
char = [0, 1, 0] ; 0
char = [0, 1, 1] ; 0
char = [0, 0, 1] ; 0
""",
    "B3": """\
name = B3
rank = 3
char = [1, 0, 0] ; 0
char = [0, 1, 0] ; 0
char = [0, 0, 1] ; 0
char = [1, 1, 0] ; 0
char = [1, -1, 0] ; 0
char = [1, 0, 1] ; 0
char = [1, 0, -1] ; 0
char = [0, 1, 1] ; 0
char = [0, 1, -1] ; 0
""",
    "B2": """\
name = B2
rank = 2
char = [1, 0] ; 0
char = [0, 1] ; 0
char = [1, 1] ; 0
char = [1, -1] ; 0
""",
    "C2": """\
name = C2
rank = 2
char = [2, 0] ; 0
char = [0, 2] ; 0
char = [1, 1] ; 0
char = [1, -1] ; 0
""",
}


@pytest.fixture()
def doubled_square_file(tmp_path):
    path = tmp_path / "doubled_square.arr"
    path.write_text(DOUBLED_SQUARE)
    return str(path)


@pytest.fixture()
def two_lines_file(tmp_path):
    path = tmp_path / "two_lines.arr"
    path.write_text(TWO_LINES)
    return str(path)


class TestParseFile:
    def test_doubled_square_normalizes_to_six(self, doubled_square_file):
        arr, name = parse_file(doubled_square_file)
        assert name == "doubled-square"
        assert len(arr.characters) == 6

    def test_two_lines(self, two_lines_file):
        arr, _ = parse_file(two_lines_file)
        assert [c.vector for c in arr.characters] == [(1, 1), (1, -1)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.arr"
        path.write_text("")
        with pytest.raises(ParseError):
            parse_file(str(path))

    def test_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.arr"
        path.write_text("rank = 2\nchar = [1, 1]\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_file(str(path))

    def test_no_normalize_rejects(self, doubled_square_file):
        with pytest.raises(ParseError, match=r"\[2, 0\]"):
            parse_file(doubled_square_file, no_normalize=True)

    def test_no_normalize_rejects_repeat(self, tmp_path, capsys):
        # constants are read mod 1, so line 4 repeats line 2
        path = tmp_path / "repeat.arr"
        path.write_text("rank = 2\nchar = [1, 0] ; 0\nchar = [0, 1] ; 0\nchar = [1, 0] ; 1\n")
        with pytest.raises(ParseError, match="line 4: duplicate character"):
            parse_file(str(path), no_normalize=True)
        assert main(["layers", str(path), "--no-normalize"]) == 1
        assert "line 4" in capsys.readouterr().err
        ch = WeightedCharacter((1, 0), 0)
        with pytest.raises(ToricError):
            Arrangement(2, (ch, WeightedCharacter((0, 1), 0), ch))


class TestCommands:
    def test_points(self, doubled_square_file, capsys):
        assert main(["points", doubled_square_file]) == 0
        out = capsys.readouterr().out
        assert "points (4):" in out
        assert "(0, 0)" in out and "(1/2, 1/2)" in out
        assert "(0, 1/2)" in out and "(1/2, 0)" in out

    def test_divisor_empty(self, two_lines_file, capsys):
        # L0, L1 are the two hypersurfaces in canonical order
        assert main(["divisor", two_lines_file, "--set", "L0,L1"]) == 0
        out = capsys.readouterr().out
        assert "EMPTY (not nested)" in out

    def test_divisor_nested(self, two_lines_file, capsys):
        assert main(["divisor", two_lines_file, "--set", "L0,L2"]) == 0
        assert "dim 0" in capsys.readouterr().out

    def test_charts_verify(self, two_lines_file, capsys):
        assert main(["charts", two_lines_file, "--verify", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_charts_verify_checked_nothing(self, two_lines_file, capsys):
        """A tolerance of 10 keeps no sample in the domain of any chart, so
        the sweeps check nothing and the verification fails."""
        argv = ["charts", two_lines_file, "--verify", "--tolerance", "10"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.rstrip().endswith("-> FAIL (a sweep checked no sample)")
        assert main(argv + ["--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["pass"] is False

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_charts_verify_needs_samples(self, two_lines_file, capsys, samples):
        """A sweep over no samples checks nothing, so it cannot pass; the
        count matters only with --verify."""
        code = main(["charts", two_lines_file, "--verify", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, not {samples}\n"
        assert main(["charts", two_lines_file, "--samples", samples]) == 0

    @pytest.mark.parametrize(
        "command",
        [["charts", "--verify"], ["curve", "--point", "L2", "--jets", "1,1;1,0"]],
        ids=["charts", "curve"],
    )
    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
    def test_tolerance_finite_positive(self, two_lines_file, capsys, command, tolerance):
        """An infinite tolerance would pass every sweep unchecked, and nan or
        one <= 0 would fail every one."""
        argv = [command[0], two_lines_file, *command[1:], "--tolerance", tolerance]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        shown = float(tolerance)
        assert captured.err == f"error: --tolerance must be finite and > 0, not {shown}\n"

    def test_layers_and_irreducible(self, two_lines_file, capsys):
        assert main(["layers", two_lines_file]) == 0
        out = capsys.readouterr().out
        assert "hasse edges" in out
        assert main(["irreducible", two_lines_file]) == 0
        out = capsys.readouterr().out
        assert out.count("[member]") == 4

    def test_nested_max(self, two_lines_file, capsys):
        assert main(["nested", two_lines_file, "--max"]) == 0
        out = capsys.readouterr().out
        assert "maximal nested sets (4):" in out

    def test_curve(self, two_lines_file, capsys):
        code = main(
            ["curve", two_lines_file, "--point", "L2", "--jets", "1,1;1,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "limit chart" in out

    @pytest.mark.parametrize(
        "jets, message",
        [
            ("1,x", "--jets: bad fraction 'x'"),
            ("1,1/0", "bad fraction"),
            ("1", "length 2"),
        ],
    )
    def test_curve_rejects_bad_jets(self, two_lines_file, capsys, jets, message):
        code = main(["curve", two_lines_file, "--point", "L2", "--jets", jets])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_unknown_command(self, two_lines_file, capsys):
        assert main(["frobnicate", two_lines_file]) == 1

    def test_domain_error_exit_one(self, two_lines_file, capsys):
        assert main(["divisor", two_lines_file, "--set", "L99"]) == 1

    @pytest.mark.parametrize("lid", ["L-1", "L+0", "L1_0", "L 1", "L\u0661", "L", "L4"])
    def test_bad_layer_id_rejected(self, two_lines_file, capsys, lid):
        """Only `L` and ASCII digits name a layer: `int` alone would read
        L-1 as the last layer, L+0 as L0 and L1_0 as L10."""
        for args in (["nested", "--max", "--point", lid], ["divisor", "--set", lid]):
            assert main([args[0], two_lines_file, *args[1:]]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown layer ID {lid!r}\n"

    def test_layer_id_digits(self, two_lines_file, capsys):
        assert main(["nested", two_lines_file, "--max", "--point", "L3"]) == 0
        assert "center=L3" in capsys.readouterr().out
        assert main(["divisor", two_lines_file, "--set", "L0,L0,L0"]) == 0
        assert "divisor {L0, L0, L0}: dim 1" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["points", "/nonexistent.arr"]) == 1

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.arr"
        path.write_bytes(TWO_LINES.encode() + b"# caf\xe9\n")
        with pytest.raises(ParseError, match="can't decode byte 0xe9"):
            parse_file(str(path))
        assert main(["points", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")


class TestDeterminism:
    def test_byte_identical(self, doubled_square_file, capsys):
        main(["charts", doubled_square_file, "--verify", "--seed", "7", "--samples", "20"])
        first = capsys.readouterr().out
        main(["charts", doubled_square_file, "--verify", "--seed", "7", "--samples", "20"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_mode(self, two_lines_file, capsys):
        assert main(["points", two_lines_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "points"
        assert len(doc["points"]) == 2
        assert len(doc["header"]["layers"]) == 4


# sha256 of stdout: the reports are byte-deterministic, so any change to
# these digests is a change of output, not a refactor
GOLDEN = [
    ("two_lines", "layers", "89bc3f4ffc5bd071ea39eb21ab3029491c5b8b23162aa4c22c9d6339294d87ac"),
    ("two_lines", "layers --json", "1e2e4bb97cf49a75d6fd3ebc92e1dcdc569048263b5a5868747e9fb9bb69c2ff"),
    ("two_lines", "irreducible", "12aa910284552bb3e170b8654e173b93fe6bbabb09f37818a3ee1fb6bbe78fc2"),
    ("two_lines", "irreducible --json", "198de3ac66ae0fa0f1d552783fe94a8e191f82ce581d0c143ee1fc49d0597cdd"),
    ("two_lines", "nested --max", "23549964b464c22dcdc09918f6f5e9895c5f440a357884f3c190b8f3a636cd23"),
    ("two_lines", "nested --max --json", "9a498c20890d890b93d17fb87d44c94953d0e20f3ff0a90ebc62a3a2e9c989fa"),
    ("two_lines", "charts --verify --seed 42", "7e9abd8e7975e2052827fcfb5e3ca3140c84ba58e6a5e02bf2b15e69cddbbba0"),
    ("two_lines", "charts --verify --seed 42 --json", "c95ebdd27e6b008d9efcb01d3192f00f55fadc8ad452eaa79f7471a7c40477b1"),
    ("doubled_square", "layers", "f1de24f88ce89026dc11e2c0d750245e4664bee32fbecb050e8f27e46d963cf2"),
    ("doubled_square", "layers --json", "5253fac785ee8657b624e2ec41439aac358d566bd36160f77dd3c8c025469f6d"),
    ("doubled_square", "irreducible", "2220abad53e291bc9d8723f82aef95091d793b9718a8de5c44ce34e2f435346e"),
    ("doubled_square", "irreducible --json", "4d7abec384821c5ac81d1e6fef58f167e9c16ed816563ea1703e92348649ef5a"),
    ("doubled_square", "nested --max", "17b404f6ed4bc2569afe8d4953958e377baa115e86d3174928568100ebc72b6d"),
    ("doubled_square", "nested --max --json", "9125cf608d357c622da120530eed88b7968c83e0ca4aa6a3be87fcbafbe7640e"),
    ("doubled_square", "charts --verify --seed 42", "0e57dfe4237e8b6645df24eb0fe9c740541840f005cc13814dc52f5010fdaf04"),
    ("doubled_square", "charts --verify --seed 42 --json", "02d2bf0b2ae09992396d30bc72ce28201ac01169eb2d30ab3e9c214ca705d2d8"),
    ("two_lines", "nested", "f4c2266b1918d815881ac0d87dddebded120dd9f131e9f74238cec7674e2354c"),
    ("two_lines", "nested --json", "2c7e0ec9eb212c9cc9d64f0d6cf486b06665230d59f2874171154233dc392933"),
    ("two_lines", "nested --point L2", "a6b2ec5e6d51fc68cf37b84719a5687181a7b7c6977369b24b5072e1de4a728f"),
    ("two_lines", "nested --point L2 --json", "71622608db9fd5e038f06b8823cd914f034a51dcdc7ca9f55adf888c196b4309"),
    ("two_lines", "nested --point L3", "c08f8f5c3c8872fee777666460f7dbba44829e896bf07d4f5461a02c5c8c36f2"),
    ("two_lines", "nested --point L3 --json", "33701e7bbf21e8ac2af68a4858626d2c873fff03afadb40284dc666f585cf15d"),
    ("doubled_square", "nested", "18e7233a4a7a311e30f745f1888d39caed95ddc9d09c818febeae19c157cf805"),
    ("doubled_square", "nested --json", "2dfb9cc5aa9d35cf29857d8b1f9a95728131575c854d9ec6386f48fcf18bf428"),
    ("doubled_square", "nested --point L6", "bfba950a47ab927c406138665544a9e82ced9a624372062135bb3f874b2047cd"),
    ("doubled_square", "nested --point L6 --json", "533d72bf012953f1c5552bc53226eae806d0e8ffcbfdba427924e5c79aea6bfb"),
    ("doubled_square", "nested --point L9", "7a9b40346f3a446941d3e40b483bc264f547c945fa064cd941002c9ee8770a0d"),
    ("doubled_square", "nested --point L9 --json", "4f775d6e0d74c130dc0ff708ead9567b292c53515bdcabbf77bee6852dda3508"),
    ("C3", "layers", "530fc11d1ccdd8d4a0652b4cfb3ab921eb93a127cc3eb7491e0b1ec050e65239"),
    ("C3", "layers --json", "9de57111549146dcfb3e1b2c3d50659b084835e5f7f08818c76c896806925686"),
    ("C3", "points", "820d60fb273615f4512d74ea05ac67a8a7840e49dcbb4e55f486833b4711aa3a"),
    ("C3", "points --json", "f6ffa0b98f5393fd545c70d68b23b4de3b214d85e07c8ef26ad70d45e13f471a"),
    ("C3", "irreducible", "05bfe5d1e8f886613a3331bda9ff94ebde0f80a2f2ccbc5e45eb87c74360c50a"),
    ("C3", "irreducible --json", "22699e3c4f968a9073794dbb346e6cbb4dadf1812996554fb0a462acb1cd2323"),
    ("A3_tors", "layers", "cfedf4c89d945e915bb77f134b931fa3d4685969637701e34980d37208354fa5"),
    ("A3_tors", "layers --json", "a13fa3ced8ecd1cdfa60e75e3952e3f8f17ec56f567c1eed4f0063e86a3ecc29"),
    ("A3_tors", "points", "e7478e8c984bff276b249c31415d5b4e23253dbe5246ec585fbce972d13a7a7c"),
    ("A3_tors", "points --json", "7b2eeca0851bcd5aff1455c212c696f6c3c0cabecb7cdf8ed38d5c86adc1a44a"),
    ("A3_tors", "irreducible", "f4c0b9618e4b530cf146c02de967384108b8fc1594310486c64ddc7f648a7cfa"),
    ("A3_tors", "irreducible --json", "3a48a12f16af43d7236d4245518b15ff7322ff8e4def2e9b9d2e79ab1eec355b"),
    ("G2_tors", "layers", "5cbca306482c445b59ad48d3af2ca74516856c77c60914972abdd7f1af36724e"),
    ("G2_tors", "layers --json", "b616b1c4c08472b77d5b88707cb67ca8a96b28bcd4710958e701b1656ab35ea2"),
    ("G2_tors", "points", "8e6cb4ee92577052f099a0f78e04403a74499adc0e9d33f00d0d2d008bb7d801"),
    ("G2_tors", "points --json", "98b58eb362c931d62b3dc92d7ed0b8d6d4fcea651035dc38ded6c51bd82b43e9"),
    ("G2_tors", "irreducible", "b5017a8424ec2225c1b926c61f2e4c34bb29d51c26c23d2677abfcca052ddf66"),
    ("G2_tors", "irreducible --json", "a876608f9ad46a5458678900a7a92d90fc1dc0964fea8da3b5fd23bfa261780d"),
    # the rank-3 root systems through the witness, center and chart paths
    ("A3", "nested --max", "d7c57a7ec321fbe28a8a9dee8d3270f29a21995445275cc973b36e068e42e798"),
    ("A3", "nested --max --json", "ac9fae7e6c676fb7b6379a2be954ac698c3f5927e3bfafe8b35b98e40f0e024f"),
    ("A3", "charts --verify --seed 42", "e6cb2713d06ada66e1a29726c963ab04be1e0cd925be5df5d4dbff756e1d6cdb"),
    ("A3", "charts --verify --seed 42 --json", "36d26878386eb6808595ea1280f72b49c81004a1c8d1f04a3a95c39143185e52"),
    ("B3", "nested --max", "f479e360ac8b67ddb43df96b5f9d160f7a28db7fc420cb29864356f5a532484b"),
    ("B3", "nested --max --json", "4e564197988362245dae5efcecd29f1c981786eebeb173fa9d9c0923f55447fd"),
    ("B3", "charts --verify --seed 42", "18f52d9ad0791dc198ada8110a0485c7a279ef315fe134cb0685ea66d6d8dc1b"),
    ("B3", "charts --verify --seed 42 --json", "406237a10b8f3c40135dc384619137e954894deff9d2c086b7a30f9ead4307f4"),
    ("C3", "nested --max", "03204758ab3ca721080f1261ce13623e75034b330ce38e983246d7fd86d402cf"),
    ("C3", "nested --max --json", "6f6aa84bac9fa25f5803474d6d7929bbd8dc8cf123b7f45244ba835f8f667d00"),
    ("C3", "charts --verify --seed 42", "0098b8c2f093c6c02c722899a324c4c57a4cde36a1d683f5281a655d75397fa1"),
    ("C3", "charts --verify --seed 42 --json", "9a03ea3abbde1027cadd6c5bbb9aa04c1ce28564e55685eb67d8da649e74ff89"),
    # the layers and building sets behind the `query` bench's one-shot calls
    ("A3", "layers", "87ebbcd1b7bfa5c44bca618fc191e0258e0effd47b4fe7cf2f3232ae4a98533a"),
    ("A3", "layers --json", "75402dc8e1f12ed1cc35ef74dc8b42354b5dfaf959b79d0a83164b3846f31068"),
    ("A3", "irreducible", "43ed4c1ca39125f308f2344e118dc79e3ede937f6a44bcdc2171393ae8e609a9"),
    ("A3", "irreducible --json", "cd075a0689df014e0c61cec1816b3523e93e723c8e7df1644ac82974cfe2fad4"),
    ("B3", "layers", "68490789681729f7295121f71e8830697aad794f2753deb17b8dbc2217575953"),
    ("B3", "layers --json", "eed7f85bbaa2cff5bf18ba6aaba8503bcd857807c1e8a69fa66c5dd150579fdd"),
    ("B3", "irreducible", "50af5b32a8f8b805d0e239f47401cd87609756c99baad39cdeb78801082fac9e"),
    ("B3", "irreducible --json", "3a6b411aa5584a5865c0d35ab2e0818af62dd4f40b813590e19b268385418945"),
    ("B2", "layers", "250966fc9cbbbeea5af842cc76da58c81c925283bbc8c4b1f3853646eaafb377"),
    ("B2", "layers --json", "8fc252c6d58de105c6e70f34450261b20fbc9286dcfe9401ea318bdd476276d8"),
    ("B2", "irreducible", "cac9f48056ef8a38e46e97d74977e51e023dc79ee9f1902b5b65643c56e9dea1"),
    ("B2", "irreducible --json", "8f0e31ff3df2e7e6447888bc825ee572f3c094211d9ab4ca0ea83a5c8d553608"),
    ("C2", "layers", "5c7435dcfe9e72dff0670191a831782727757997578f3514e1ac3a3a45e92d94"),
    ("C2", "layers --json", "310c8a095a60ed72dbc9b4696692806cbd843b37a419dd9334204418b6522c38"),
    ("C2", "irreducible", "6b1fd894ed2d7038762242b814696b832ff718b9f6e335da0179217caee39d3e"),
    ("C2", "irreducible --json", "8014bdd03862f567e135bc7a48e0144e32c260413613650cfc3faf4fcce68525"),
]


@pytest.mark.parametrize("name, command, digest", GOLDEN)
def test_golden_stdout(name, command, digest, capsys, tmp_path):
    path = EXAMPLES / f"{name}.arr"
    if name in FAMILIES:
        path = tmp_path / f"{name}.arr"
        path.write_text(FAMILIES[name])
    argv = command.split()
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
