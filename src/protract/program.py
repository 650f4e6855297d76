"""Compilation of expression DAGs to flat stack-machine tables.

A CompiledTable evaluates a whole family of expressions in a single pass
over its tape (kernel.eval_table runs that pass over a batch of points).
Subtrees shared between entries are computed once per evaluation and
kept in slots, which matters because curvature and connection components
share most of their structure. Sharing is by identity, and expression
nodes are interned, so every structurally equal subtree is shared.

Opcodes (one int arg each, unused args are 0):

    CONST k   push consts[k]
    VAR i     push point[i]
    ADD m     pop m values, push their sum
    MUL m     pop m values, push their product
    POW e     replace top t by t**e (integer e)
    NEG       negate top
    SIN COS EXP
    LOAD s    push slots[s]
    STORE s   slots[s] = top (top stays)
    OUT k     out[k] = top, pop
    TAKE s    push slots[s] and free slot s (the last LOAD of s)

Constants are kept exact (Fractions), so one table serves both
arithmetic modes: kernel.eval_table runs it over Fraction columns for a
rational batch and over float64 columns, with each constant rounded
once, otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, Call, Const, Mul, Neg, Pow, Var, as_expr

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_POW = 4
OP_NEG = 5
OP_SIN = 6
OP_COS = 7
OP_EXP = 8
OP_LOAD = 9
OP_STORE = 10
OP_OUT = 11
OP_TAKE = 12

_CALL_OPS = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP}


class CompiledTable:
    __slots__ = ("ops", "args", "consts", "n_out", "n_slots", "stack_need",
                 "max_var")

    def __init__(self, ops, args, consts, n_out, n_slots, stack_need, max_var):
        self.ops = ops
        self.args = args
        self.consts = consts
        self.n_out = n_out
        self.n_slots = n_slots
        self.stack_need = stack_need
        self.max_var = max_var

    def __len__(self):
        return len(self.ops)


def compile_table(exprs) -> CompiledTable:
    """Compile a family of expressions into one shared-slot table."""
    roots = [as_expr(e) for e in exprs]

    slot_of = _shared_nodes(roots)
    n_slots = 0
    ops: list[int] = []
    args: list[int] = []
    consts: list[Fraction] = []
    const_ix: dict[Fraction, int] = {}
    max_var = -1
    depth = 0
    peak = 0

    def emit(op: int, arg: int, delta: int):
        nonlocal depth, peak
        ops.append(op)
        args.append(arg)
        depth += delta
        if depth > peak:
            peak = depth

    def emit_const(value: Fraction):
        ix = const_ix.get(value)
        if ix is None:
            ix = len(consts)
            consts.append(value)
            const_ix[value] = ix
        emit(OP_CONST, ix, 1)

    for k, root in enumerate(roots):
        work = [(root, False)]
        while work:
            node, ready = work.pop()
            nid = id(node)
            if not ready:
                slot = slot_of.get(nid)
                if slot is not None:
                    emit(OP_LOAD, slot, 1)
                    continue
                if isinstance(node, Const):
                    emit_const(node.value)
                    continue
                if isinstance(node, Var):
                    if node.index > max_var:
                        max_var = node.index
                    emit(OP_VAR, node.index, 1)
                    continue
                work.append((node, True))
                for c in reversed(node.children()):
                    work.append((c, False))
            else:
                if isinstance(node, Add):
                    emit(OP_ADD, len(node.terms), 1 - len(node.terms))
                elif isinstance(node, Mul):
                    emit(OP_MUL, len(node.factors), 1 - len(node.factors))
                elif isinstance(node, Pow):
                    emit(OP_POW, node.exponent, 0)
                elif isinstance(node, Neg):
                    emit(OP_NEG, 0, 0)
                elif isinstance(node, Call):
                    emit(_CALL_OPS[node.name], 0, 0)
                else:
                    raise TypeError("cannot compile %r" % node)
                if nid in slot_of:
                    slot_of[nid] = n_slots
                    emit(OP_STORE, n_slots, 0)
                    n_slots += 1
        emit(OP_OUT, k, -1)

    # the last LOAD of each slot frees it, so a batched evaluation keeps
    # only the slots still to be read alive
    freed = bytearray(n_slots)
    for i in range(len(ops) - 1, -1, -1):
        if ops[i] == OP_LOAD and not freed[args[i]]:
            freed[args[i]] = 1
            ops[i] = OP_TAKE

    return CompiledTable(ops, args, consts, len(roots), n_slots, peak, max_var)


def _shared_nodes(roots) -> dict[int, None]:
    """The ids of the nodes referenced twice, as a root or as a child of
    a distinct node, each mapped to None (the slot compile_table gives
    it once the node is emitted). Leaves are never shared: pushing a
    constant or a coordinate costs no more than loading a slot."""
    seen: set[int] = set()
    shared: dict[int, None] = {}
    refs = list(roots)
    while refs:
        node = refs.pop()
        if isinstance(node, (Const, Var)):
            continue
        nid = id(node)
        if nid in seen:
            shared[nid] = None
        else:
            seen.add(nid)
            refs.extend(node.children())
    return shared
