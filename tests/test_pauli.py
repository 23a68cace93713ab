import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcat.pauli import (
    CodeFormatError,
    CssCode,
    parse_css_code,
    residual_weight_mod_generator,
    serialize_css_code,
    steane_code,
)

from pauli_ref import PauliFrame, code_syndrome


class TestPauliFrame:
    def test_compose_is_xor(self):
        a = PauliFrame(4, x=0b0011, z=0b0101)
        b = PauliFrame(4, x=0b0110, z=0b0101)
        c = a.compose(b)
        assert c.x == 0b0101 and c.z == 0

    def test_self_inverse(self):
        a = PauliFrame(5, x=0b10110, z=0b00111)
        assert a.compose(a).is_identity()

    def test_single_y_sets_both_components(self):
        y = PauliFrame.single(3, 1, "Y")
        assert y.x == 0b010 and y.z == 0b010

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PauliFrame(3).compose(PauliFrame(4))


class TestSteaneParsing:
    def test_steane_weights(self, steane):
        assert (steane.n, steane.k, steane.d) == (7, 1, 3)
        assert steane.gen_weights == (4,) * 6

    def test_anticommuting_rows_rejected(self):
        bad = "2 0 1\nX 1\n10\nZ 1\n11\n"
        with pytest.raises(CodeFormatError):
            parse_css_code(bad)

    def test_two_qubit_degenerate_code_valid(self):
        code = parse_css_code("2 0 1\nX 1\n11\nZ 1\n11\n")
        assert code.gen_weights == (2, 2)

    def test_row_count_mismatch(self):
        text = "7 1 3\nX 2\n0001111\n0110011\nZ 3\n0001111\n0110011\n1010101\n"
        with pytest.raises(CodeFormatError):
            parse_css_code(text)

    def test_dependent_rows_rejected(self):
        text = "4 0 1\nX 2\n1100\n1100\nZ 2\n1111\n0000\n"
        with pytest.raises(CodeFormatError):
            parse_css_code(text)

    def test_bad_row_length(self):
        with pytest.raises(CodeFormatError):
            parse_css_code("3 1 1\nX 1\n1111\nZ 1\n111\n")

    def test_round_trip(self, steane):
        again = parse_css_code(serialize_css_code(steane))
        assert again == steane

    def test_rows_wider_than_a_word_and_empty_blocks(self):
        # 69 single-qubit Z rows over 70 qubits, no X row: rows cross
        # the 64-bit word boundary and the X block is empty
        code = CssCode(70, 1, 1, (), tuple(1 << i for i in range(69)))
        text = serialize_css_code(code)
        lines = text.splitlines()
        assert lines[:3] == ["70 1 1", "X 0", "Z 69"]
        assert lines[3 + 66] == "0" * 66 + "1" + "0" * 3
        assert parse_css_code(text) == code


class TestSyndrome:
    def test_identity_frame_zero_syndrome(self, steane):
        syn = code_syndrome(steane, PauliFrame.identity(7))
        assert syn.bits == 0

    def test_single_z_fires_rows_containing_qubit(self, steane):
        syn = code_syndrome(steane, PauliFrame.single(7, 0, "Z"))
        # only the X row 1010101 touches qubit 0
        assert syn.as_tuple() == (0, 0, 1, 0, 0, 0)

    def test_generator_support_is_invisible(self, steane):
        err = PauliFrame(7, x=steane.hx[0], z=steane.hz[1])
        assert code_syndrome(steane, err).bits == 0

    @given(
        ax=st.integers(0, 127), az=st.integers(0, 127),
        bx=st.integers(0, 127), bz=st.integers(0, 127),
    )
    @settings(max_examples=60, deadline=None)
    def test_syndrome_linearity(self, ax, az, bx, bz):
        code = steane_code()
        a = PauliFrame(7, ax, az)
        b = PauliFrame(7, bx, bz)
        lhs = code_syndrome(code, a.compose(b))
        rhs = code_syndrome(code, a) ^ code_syndrome(code, b)
        assert lhs == rhs


class TestCosetWeight:
    @pytest.mark.parametrize(
        "vec,gamma,expected",
        [(0, 10, 0), ((1 << 10) - 1, 10, 0), (0b1111111, 10, 3)],
    )
    def test_examples(self, vec, gamma, expected):
        assert residual_weight_mod_generator(vec, gamma) == expected

    @given(vec=st.integers(0, 2**12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_complement_symmetry(self, vec):
        gamma = 12
        comp = vec ^ ((1 << gamma) - 1)
        assert residual_weight_mod_generator(vec, gamma) == \
            residual_weight_mod_generator(comp, gamma)
