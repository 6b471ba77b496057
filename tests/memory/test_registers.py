"""Unit tests for the register file."""

import pytest

from repro.errors import ProtocolError
from repro.memory import RegisterFile, apply_operation
from repro.memory.registers import (
    UNWRITTEN,
    DigestedRegisterFile,
    register_term,
)
from repro.runtime import ops


class TestRegisterFile:
    def test_unwritten_reads_none(self):
        assert RegisterFile().read("anything") is None

    def test_write_then_read(self):
        mem = RegisterFile()
        mem.write("r", 5)
        assert mem.read("r") == 5

    def test_overwrite(self):
        mem = RegisterFile()
        mem.write("r", 1)
        mem.write("r", 2)
        assert mem.read("r") == 2

    def test_snapshot_prefix(self):
        mem = RegisterFile()
        mem.write("a/0", 1)
        mem.write("a/1", 2)
        mem.write("b/0", 3)
        assert mem.snapshot("a/") == {"a/0": 1, "a/1": 2}
        assert mem.snapshot("zzz") == {}

    def test_cas_success_and_failure(self):
        mem = RegisterFile()
        assert mem.compare_and_swap("r", None, "x") is None
        assert mem.read("r") == "x"
        assert mem.compare_and_swap("r", None, "y") == "x"
        assert mem.read("r") == "x"

    def test_len_and_names(self):
        mem = RegisterFile()
        mem.write("a", 1)
        mem.write("b", 2)
        assert len(mem) == 2
        assert set(mem.names()) == {"a", "b"}


class TestDigestedRegisterFile:
    def test_digest_ignores_write_order(self):
        a, b = DigestedRegisterFile(), DigestedRegisterFile()
        for name, value in [("x/0", 1), ("x/1", 2), ("y", 3)]:
            a.write(name, value)
        for name, value in [("y", 3), ("x/1", 9), ("x/0", 1), ("x/1", 2)]:
            b.write(name, value)
        assert a.digest == b.digest

    def test_written_none_is_not_unwritten(self):
        mem = DigestedRegisterFile()
        mem.write("r", None)
        assert mem.digest != DigestedRegisterFile().digest
        assert mem.last_write == ("r", UNWRITTEN, 0)

    def test_revert_restores_the_prior_value(self):
        mem = DigestedRegisterFile()
        mem.write("a/0", 1)
        digest = mem.digest
        assert mem.snapshot("a/") == {"a/0": 1}
        mem.write("a/0", 2)
        mem.revert(*mem.last_write)
        assert mem.read("a/0") == 1
        assert mem.snapshot("a/") == {"a/0": 1}
        assert mem.digest == digest

    def test_reverting_a_first_write_deletes_the_register(self):
        mem = DigestedRegisterFile()
        mem.write("a/0", 1)
        assert mem.snapshot("") == {"a/0": 1}
        assert mem.snapshot("a/") == {"a/0": 1}
        mem.write("a/1", None)
        assert mem.snapshot("a/") == {"a/0": 1, "a/1": None}
        mem.revert(*mem.last_write)
        assert mem.snapshot("a/") == {"a/0": 1}
        mem.revert("a/0", UNWRITTEN, 0)
        assert len(mem) == 0
        assert mem.snapshot("") == {} and mem.snapshot("a/") == {}
        assert mem.digest == 0 and mem.term("a/0") == 0


    def test_snapshot_digest_names_one_bucket_prefixes(self):
        mem = DigestedRegisterFile()
        mem.write("a/0", 1)
        mem.write("a/1", 2)
        mem.write("r", 3)
        digest = mem.snapshot_digest("a/")
        assert digest == register_term("a/0", 1) + register_term("a/1", 2)
        # A partial leaf, the whole memory, an unwritten bucket.
        for prefix in ("a/1", "", "b/"):
            assert mem.snapshot_digest(prefix) is None
        # A deeper register makes "a/" span two buckets, until reverted.
        mem.write("a/b/0", 4)
        assert mem.snapshot_digest("a/") is None
        assert mem.snapshot_digest("a/b/") == register_term("a/b/0", 4)
        mem.revert(*mem.last_write)
        assert mem.snapshot_digest("a/") == digest
        assert mem.snapshot_digest("a/b/") is None


class TestApplyOperation:
    def test_read_write(self):
        mem = RegisterFile()
        assert apply_operation(mem, ops.Write("r", 9)) is None
        assert apply_operation(mem, ops.Read("r")) == 9

    def test_snapshot(self):
        mem = RegisterFile()
        mem.write("x/0", 1)
        assert apply_operation(mem, ops.Snapshot("x/")) == {"x/0": 1}

    def test_nop(self):
        assert apply_operation(RegisterFile(), ops.Nop()) is None

    def test_cas(self):
        mem = RegisterFile()
        assert apply_operation(mem, ops.CompareAndSwap("r", None, 1)) is None
        assert apply_operation(mem, ops.CompareAndSwap("r", None, 2)) == 1

    def test_non_memory_op_rejected(self):
        with pytest.raises(ProtocolError):
            apply_operation(RegisterFile(), ops.QueryFD())
        with pytest.raises(ProtocolError):
            apply_operation(RegisterFile(), ops.Decide(1))
