"""Donation-race detector: cross-check the buffer-donation planner.

The lowering pass in ``runtime/compile.py`` decides which steps may
overwrite an operand buffer in place, and publishes each decision as a
:class:`~repro.runtime.plan.DonationRecord` on the plan. This pass
**re-derives** value aliasing and liveness from the HLO module with a
second, independent implementation and checks every record against it:
a donated buffer must have no reader after the donating step, must not
hold a requested output, and (inside While bodies) must not be a
loop-carried parameter.

The two implementations share nothing but the IR, so a bug in either
one's liveness shows up as a D001 disagreement instead of silently
corrupted numerics at run time.

Model (mirroring the *semantics* the planner promises, not its code):

* ``Reshape``/``Transpose``/``Slice``/``Copy`` alias their operand's
  buffer; ``CollectivePermuteStart`` passes its operand through.
* The transfer is *deferred*: the Start copies nothing, and the matching
  ``Done`` reads the Start's operand and writes the payload into a
  *fresh* buffer. Snapshot-at-issue therefore holds by immutability —
  the operand's buffer is read at the Done, so donating or releasing it
  anywhere inside the Start..Done window is a D001. (This is the
  contract of :func:`repro.runtime.compile.lower`, whose records this
  pass audits; multi-worker plans copy rows into the mailbox at the
  Start and are checked by :mod:`repro.analysis.concurrency` instead.)
* Identical pure ops compute one shared value (the planner CSEs them),
  so readers of a duplicate read the representative's buffer.
* Requested outputs are read at the horizon (after every step).

Rules: D001 (donated buffer written while a prior value is still read),
D002 (record names an unknown step or value).

Known gap, by design: constant folding is not modelled. Folded values
are never donatable, so the gap cannot produce false races — at worst a
planner bug involving *only* folded constants goes unflagged here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, error
from repro.hlo.instruction import Instruction, ShardIndex
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode, SOURCE_OPS

PASS_NAME = "donation"

#: Position modelling "read after the last step" (requested outputs).
_HORIZON = 1 << 60

_ALIAS_OPS = frozenset(
    {
        Opcode.RESHAPE,
        Opcode.TRANSPOSE,
        Opcode.SLICE,
        Opcode.COPY,
        Opcode.COLLECTIVE_PERMUTE_START,
    }
)

#: Ops the planner never merges: stateful, async, or control flow.
_NEVER_MERGED = SOURCE_OPS | frozenset(
    {
        Opcode.WHILE,
        Opcode.COLLECTIVE_PERMUTE_START,
        Opcode.COLLECTIVE_PERMUTE_DONE,
        Opcode.FUSION,
    }
)

_COMMUTATIVE = frozenset({Opcode.ADD, Opcode.MULTIPLY, Opcode.MAXIMUM})


def check_donations(
    module: HloModule,
    records: Optional[Sequence] = None,
    num_devices: int = 2,
    outputs: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Cross-check donation records against re-derived liveness.

    ``records`` defaults to lowering the module with the real planner
    (on ``num_devices`` devices) and auditing what it decided. Records
    are matched to (possibly nested While-body) modules by their
    ``module`` field.
    """
    if records is None:
        from repro.runtime.compile import lower  # runtime dep kept lazy

        records = lower(module, num_devices, outputs).donations
    by_module: Dict[str, List] = {}
    for record in records:
        by_module.setdefault(record.module, []).append(record)
    return _check_one(module, by_module, outputs, donate_params=True)


def _check_one(
    module: HloModule,
    by_module: Dict[str, List],
    outputs: Optional[Sequence[str]],
    donate_params: bool,
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    records = by_module.get(module.name, [])

    wanted = list(outputs) if outputs else (
        [module.root.name] if module.root is not None else []
    )
    analysis = _Liveness(module, wanted)

    for record in records:
        diagnostics.extend(
            _check_record(module, analysis, record, donate_params)
        )

    # Recurse into While bodies (their records carry the body's name).
    for instruction in module:
        if instruction.opcode is Opcode.WHILE:
            body = instruction.attrs.get("body")
            body_outputs = instruction.attrs.get("body_outputs")
            if isinstance(body, HloModule) and body_outputs is not None:
                diagnostics.extend(
                    _check_one(
                        body, by_module, body_outputs, donate_params=False
                    )
                )
    return diagnostics


def _check_record(
    module: HloModule,
    analysis: "_Liveness",
    record,
    donate_params: bool,
) -> List[Diagnostic]:
    step_position = analysis.position_of(record.step)
    donated_base = analysis.base_of(record.value)
    if step_position is None or donated_base is None:
        missing = record.step if step_position is None else record.value
        return [
            error(
                "D002",
                f"donation record ({record.step} <- {record.value}) names "
                f"{missing!r}, which is not a live instruction here",
                None,
                module.name,
            )
        ]
    problems: List[Diagnostic] = []
    if not donate_params and donated_base in analysis.parameter_bases:
        problems.append(
            error(
                "D001",
                f"step {record.step} donates loop-carried parameter "
                f"buffer {record.value!r}; body plans must never reuse "
                "state owned by the enclosing loop",
                record.step,
                module.name,
            )
        )
    for position, reader in analysis.readers_of(donated_base):
        if position > step_position:
            problems.append(
                error(
                    "D001",
                    f"donates the buffer of {record.value!r} while "
                    f"{reader} still reads it later in the schedule",
                    record.step,
                    module.name,
                    hint="the donating step would overwrite a live value",
                )
            )
    return problems


class _Liveness:
    """Value numbering + alias classes + read positions for one module."""

    def __init__(self, module: HloModule, outputs: Sequence[str]) -> None:
        self.module = module
        # Reachability: the planner DCEs everything the outputs don't
        # need (parameters always survive), so dead readers must not
        # extend liveness here either.
        live = set()
        stack = []
        for name in outputs:
            try:
                stack.append(module.get(name))
            except KeyError:
                continue
        while stack:
            instruction = stack.pop()
            if id(instruction) in live:
                continue
            live.add(id(instruction))
            stack.extend(instruction.operands)

        self._position: Dict[str, int] = {}
        self._base: Dict[int, int] = {}      # id(rep) -> id(base rep)
        self._rep: Dict[int, Instruction] = {}     # id(instr) -> rep
        self._readers: Dict[int, List[Tuple[int, str]]] = {}
        self.parameter_bases: set = set()
        numbering: Dict[Tuple, Instruction] = {}

        position = 0
        for instruction in module:
            if (
                id(instruction) not in live
                and instruction.opcode is not Opcode.PARAMETER
            ):
                continue
            key = self._fingerprint(instruction)
            representative = numbering.get(key) if key is not None else None
            if representative is not None:
                # Duplicate of an earlier value: it computes nothing and
                # reads nothing — its users will read the representative.
                self._rep[id(instruction)] = representative
                continue
            self._rep[id(instruction)] = instruction
            if key is not None:
                numbering[key] = instruction
            self._position[instruction.name] = position

            # A Done's operand is its Start, which aliases the transfer
            # operand — so this also records the deferred read at the Done.
            for operand in instruction.operands:
                base = self._base[id(self._rep[id(operand)])]
                self._readers.setdefault(base, []).append(
                    (position, instruction.name)
                )

            if instruction.opcode in _ALIAS_OPS and instruction.operands:
                operand_rep = self._rep[id(instruction.operands[0])]
                self._base[id(instruction)] = self._base[id(operand_rep)]
            else:
                self._base[id(instruction)] = id(instruction)
            if instruction.opcode is Opcode.PARAMETER:
                self.parameter_bases.add(id(instruction))
            position += 1

        for name in outputs:
            try:
                instruction = module.get(name)
            except KeyError:
                continue
            base = self._base[id(self._rep[id(instruction)])]
            self._readers.setdefault(base, []).append(
                (_HORIZON, f"requested output {name!r}")
            )

    def _fingerprint(self, instruction: Instruction) -> Optional[Tuple]:
        """Equivalence key under which the planner merges pure ops."""
        if instruction.opcode in _NEVER_MERGED:
            return None
        operand_ids = [
            id(self._rep[id(operand)]) for operand in instruction.operands
        ]
        if instruction.opcode in _COMMUTATIVE:
            operand_ids.sort()
        attrs = tuple(
            sorted(
                (key, _hashable(value))
                for key, value in instruction.attrs.items()
            )
        )
        return (instruction.opcode, tuple(operand_ids), attrs)

    def position_of(self, name: str) -> Optional[int]:
        return self._position.get(name)

    def base_of(self, name: str) -> Optional[int]:
        try:
            instruction = self.module.get(name)
        except KeyError:
            return None
        representative = self._rep.get(id(instruction))
        if representative is None:
            return None
        return self._base[id(representative)]

    def readers_of(self, base: int) -> List[Tuple[int, str]]:
        return self._readers.get(base, [])


def _hashable(value) -> object:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, (int, float, str, bool, ShardIndex, type(None))):
        return value
    return repr(value)
