"""Tests that the removed CLI spellings stay removed.

``--payload-bytes`` (canonical: ``--payload``) and positional
all-reduce shapes (canonical: repeatable ``--shape``) were deprecated
aliases and are now gone: argparse rejects them with exit status 2,
and the canonical spellings parse without any warning.  ``--metrics``
is taken only by the commands that honour it; the capture commands
reject it the same way.
"""

import argparse

import pytest

from repro.__main__ import _canonical_parent, _parse_shape, main


def _parse(argv):
    parser = argparse.ArgumentParser(parents=[_canonical_parent()])
    return parser.parse_args(argv)


class TestPayloadBytesAlias:
    def test_old_spelling_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(["--payload-bytes", "64"])
        assert exc.value.code == 2
        assert "--payload-bytes" in capsys.readouterr().err

    def test_canonical_spelling_is_silent(self, recwarn):
        ns = _parse(["--payload", "32"])
        assert ns.payload == 32
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestAllreducePositionalShapes:
    def test_positional_shape_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["allreduce", "2x2x2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: 2x2x2" in capsys.readouterr().err

    def test_parse_shape_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shape("not-a-shape")


class TestMetricsFlagScope:
    @pytest.mark.parametrize("argv", [
        ["trace", "latency"],
        ["attribute", "latency"],
        ["profile", "latency"],
        ["monitor"],
        ["report"],
        ["congest", "congestion"],
    ], ids=lambda argv: argv[0])
    def test_capture_commands_reject_metrics(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--metrics"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metrics" in capsys.readouterr().err
