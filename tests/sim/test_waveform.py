"""Tests for the ASCII waveform renderer."""

from repro.algebra import FALL, RISE, STABLE0, STABLE1, Triple
from repro.sim import TwoPatternTest, render_test, render_waveforms


class TestRenderWaveforms:
    def test_shapes(self, c17):
        values = {
            "N1": RISE,
            "N2": FALL,
            "N3": STABLE0,
            "N6": STABLE1,
            "N7": Triple.parse("0x0"),
        }
        text = render_waveforms(c17, values, ["N1", "N2", "N3", "N6", "N7"])
        lines = text.splitlines()
        assert "_/~" in lines[0]  # rising
        assert "~\\_" in lines[1]  # falling
        assert "___" in lines[2]  # steady low
        assert "~~~" in lines[3]  # steady high
        assert "_?_" in lines[4]  # possible glitch

    def test_unknown_shape(self, c17):
        text = render_waveforms(c17, {"N1": Triple.parse("xxx")}, ["N1"])
        assert "???" in text

    def test_triple_string_included(self, c17):
        text = render_waveforms(c17, {"N1": RISE}, ["N1"])
        assert "(0x1)" in text


class TestRenderTest:
    def test_defaults_inputs_and_outputs(self, c17):
        test = TwoPatternTest(
            {pi: Triple.transition(0, 1) for pi in c17.input_indices}
        )
        text = render_test(c17, test)
        for name in c17.input_names:
            assert name in text
        for name in c17.output_names:
            assert name in text

    def test_selected_lines(self, c17):
        test = TwoPatternTest(
            {pi: Triple.stable(1) for pi in c17.input_indices}
        )
        text = render_test(c17, test, lines=["N10"])
        assert text.splitlines()[0].startswith("N10")
        # NAND of two stable ones is stable 0.
        assert "___" in text
