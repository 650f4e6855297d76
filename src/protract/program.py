"""Compilation of expression DAGs to register tapes.

A CompiledTable evaluates a whole family of expressions in a single pass
over its tape (kernel.eval_table runs that pass over a batch of points).
The tape has one instruction per distinct node of the family's union
DAG, in an order where every node comes after its children, and
instruction i writes register i. Expression nodes are interned, so a
subtree the entries share, or one parsed twice, is one instruction and
is computed once per evaluation; curvature and connection components
share most of their structure.

Instruction i is ops[i] with args[i], and it reads the registers
operands[starts[i]:starts[i + 1]], in the node's child order:

    CONST     arg is the constant (an exact Fraction)
    VAR       arg is the coordinate index
    ADD MUL   the sum or product of the operands, folded left to right
    POW       arg is the integer exponent, one operand
    NEG SIN COS EXP   one operand

last_read[r], one machine int per register, is the index of the last
instruction that reads register r, so an evaluation drops r there. The
outputs are the root registers; their last_read is len(table), so they
outlive the tape.

Constants are kept exact, so one table serves both arithmetic modes:
for a rational batch kernel.eval_table runs it once per point over
(numerator, denominator) int pairs, and otherwise once over float64
columns, with each constant rounded once.

share_fold_prefixes rewrites a compiled table so that sums and products
whose operand lists start alike compute that common prefix once: a
fold's first operand may then be the register of a shared prefix, an ADD
or MUL instruction that is no node of the DAG. The values are unchanged,
because the walker folds strictly left to right. It pays where a table
is walked many times: transport's coefficient tables, once per RK4
batch. For the same reason the table it makes carries a float program
(kernel.eval_table runs it for a float batch), lowered once when the
table is made; a table from compile_table carries none.
"""

from __future__ import annotations

from array import array

from .expr import (Add, Call, Const, Mul, Neg, Pow, Var, _postorder_apply,
                   as_expr)

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_POW = 4
OP_NEG = 5
OP_SIN = 6
OP_COS = 7
OP_EXP = 8

_CALL_OPS = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP}


class CompiledTable:
    __slots__ = ("ops", "args", "operands", "starts", "last_read", "outputs",
                 "n_slots", "max_var", "program")

    def __init__(self, ops, args, operands, starts, last_read, outputs,
                 n_slots, max_var):
        self.ops = ops
        self.args = args
        self.operands = operands
        self.starts = starts
        self.last_read = last_read
        self.outputs = outputs      # the register of each entry
        self.n_slots = n_slots      # non-leaf registers read twice or more
        self.max_var = max_var
        self.program = None         # kernel's float program, when shared

    @property
    def n_out(self):
        return len(self.outputs)

    def __len__(self):
        return len(self.ops)


def _op_arg(node):
    if isinstance(node, Const):
        return OP_CONST, node.value
    if isinstance(node, Var):
        return OP_VAR, node.index
    if isinstance(node, Add):
        return OP_ADD, 0
    if isinstance(node, Mul):
        return OP_MUL, 0
    if isinstance(node, Pow):
        return OP_POW, node.exponent
    if isinstance(node, Neg):
        return OP_NEG, 0
    if isinstance(node, Call):
        return _CALL_OPS[node.name], 0
    raise TypeError("cannot compile %r" % node)


def compile_table(exprs) -> CompiledTable:
    """Compile a family of expressions into one register tape."""
    ops, args = [], []
    # machine ints, not tuples of int objects: the large tables are held
    # while they are evaluated
    operands, starts = array("l"), array("l", [0])

    def emit(node, regs):
        op, arg = _op_arg(node)
        ops.append(op)
        args.append(arg)
        operands.extend(regs)
        starts.append(len(operands))
        return len(ops) - 1

    outputs = _postorder_apply([as_expr(e) for e in exprs], emit)
    max_var = max((a for op, a in zip(ops, args) if op == OP_VAR), default=-1)
    return _finish(ops, args, operands, starts, outputs, max_var)


def _finish(ops, args, operands, starts, outputs, max_var) -> CompiledTable:
    """The table of a finished tape, with the last reader of every
    register and the count of shared ones."""
    n = len(ops)
    last_read = array("l", [0]) * n
    reads = [0] * n
    for i in range(n):
        for r in operands[starts[i]:starts[i + 1]]:
            last_read[r] = i
            reads[r] += 1
    for r in outputs:
        last_read[r] = n
        reads[r] += 1
    # leaves never count as shared: reading a constant or a coordinate
    # costs nothing to keep
    n_slots = sum(1 for op, k in zip(ops, reads)
                  if k > 1 and op != OP_CONST and op != OP_VAR)
    return CompiledTable(ops, args, operands, starts, last_read, outputs,
                         n_slots, max_var)


def share_fold_prefixes(table: CompiledTable) -> CompiledTable:
    """The table with every sum and product prefix computed once.

    The walker folds an ADD or MUL strictly left to right, so folds of
    one op that start with the same k operands compute the same partial
    result, bit for bit in float and as the same reduced pair in exact
    mode. The operand sequences of the folds form a trie (one per op);
    a trie node at depth 2 or more becomes a register where folds
    branch or where a fold ends, and each fold reads its deepest such
    register followed by the rest of its operands. Every distinct
    prefix is then one binary operation, the fewest left folds allow.
    A prefix register is emitted just before its first reader, so it
    lives from there to its last reader; every value, entry and raised
    error is the original table's.
    """
    ops, args = table.ops, table.args
    operands, starts = table.operands, table.starts
    n = len(ops)
    n_nodes = len(operands) + 2
    # trie node k (0 and 1 are the ADD and MUL roots) extends node
    # parent[k] by register operand[k], under the key
    # operand * n_nodes + parent (measured faster than parent * n_nodes +
    # operand). Only ints go in, so the garbage collector never scans
    # the trie.
    child = {}
    parent, operand = [-1, -1], [-1, -1]
    fanout = [0, 0]
    ends = bytearray(2)
    fold_end = {}
    for i in range(n):
        op = ops[i]
        if (op != OP_ADD and op != OP_MUL) or starts[i + 1] - starts[i] < 2:
            continue
        node = op - OP_ADD
        for x in operands[starts[i]:starts[i + 1]]:
            key = x * n_nodes + node
            nxt = child.get(key)
            if nxt is None:
                nxt = child[key] = len(parent)
                parent.append(node)
                operand.append(x)
                fanout.append(0)
                ends.append(0)
                fanout[node] += 1
            node = nxt
        ends[node] = 1
        fold_end[i] = node
    del child

    new_ops, new_args = [], []
    new_operands, new_starts = array("l"), array("l", [0])
    reg = [0] * n             # the new register of each instruction
    node_reg = [-1] * len(parent)
    path = []
    for i in range(n):
        op = ops[i]
        end = fold_end.get(i)
        if end is None:
            new_ops.append(op)
            new_args.append(args[i])
            new_operands.extend(map(reg.__getitem__,
                                    operands[starts[i]:starts[i + 1]]))
            new_starts.append(len(new_operands))
            reg[i] = len(new_ops) - 1
            continue
        if node_reg[end] < 0:
            # emit the registers from the deepest one already emitted
            # (or the root) down to the fold's own end
            node = end
            while node > 1 and node_reg[node] < 0:
                path.append(node)
                node = parent[node]
            first = len(new_operands)
            if node > 1:
                new_operands.append(node_reg[node])
            while path:
                node = path.pop()
                new_operands.append(reg[operand[node]])
                if len(new_operands) - first > 1 and (ends[node]
                                                      or fanout[node] > 1):
                    new_ops.append(op)
                    new_args.append(0)
                    new_starts.append(len(new_operands))
                    r = node_reg[node] = len(new_ops) - 1
                    first = len(new_operands)
                    if path:
                        new_operands.append(r)
        reg[i] = node_reg[end]

    shared = _finish(new_ops, new_args, new_operands, new_starts,
                     [reg[r] for r in table.outputs], table.max_var)
    from .kernel import _lower   # kernel imports this module
    shared.program = _lower(shared)
    return shared
