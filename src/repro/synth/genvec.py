"""Vectorized corpus generation: one numpy pass for a whole seed batch.

The per-block python path (:func:`repro.synth.corpus.compile_case`) walks
``random.Random`` draw by draw, builds an AST, lowers it to tuples, and
runs the three optimizer passes to a fixpoint -- per benchmark.  At
paper scale (100 benchmarks per point, 3500+ overall) that front end
dominates corpus wall time.  This module replaces it with two stages
that are *bit-identical* by construction:

* :class:`_VecRng` -- ``C`` independent Mersenne-Twister streams as a
  ``(C, 624)`` uint32 state matrix, twisted and tempered with numpy.
  Each stream is seeded from ``random.Random(seed).getstate()``, so
  stream ``k`` emits exactly the words ``random.Random(seeds[k])``
  would.  On top sit vectorized replicas of the CPython consumption
  contracts the generator uses -- ``random()`` (two words),
  ``getrandbits`` (one word, top bits), ``_randbelow`` (masked
  rejection loop), ``choices`` (cumulative-weight bisection) -- so the
  *sequence of draws per stream* matches ``generate_block`` exactly.

* a fused front end -- code generation, constant folding, CSE and DCE
  in one pass over the drawn arrays.  The sequential pipeline reaches
  its fixpoint after a single round on generator output (folding can
  only fire on generator constants, CSE never creates new immediates,
  DCE only deletes), so the fused pass forwards each variable's
  fold+CSE-resolved value through the environment and reproduces the
  optimized program -- including the raw tuple numbering with gaps --
  without ever materializing the AST or the unoptimized program.

Dispatch rides the existing kernel machinery: the batch runs vectorized
when numpy imports and its size reaches ``THRESHOLDS["genvec"]``,
every decision is counted
under ``kernels.calls.genvec.*``, and ``REPRO_CHECK=1``
cross-checks every vectorized case against :func:`compile_case`.

Blocks with ``p_nested > 0`` recurse into variable-depth expression
trees; those fall back to the python generator (``supported``).
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro import kernels
from repro.obs import prof as obs_prof
from repro.ir.ast import apply_op
from repro.ir.dag import ENTRY, EXIT, InstructionDAG, _topological_order
from repro.timing import ZERO
from repro.ir.ops import (
    ALU_OPCODES,
    COMMUTATIVE_OPCODES,
    DEFAULT_TIMING,
    OP_FREQUENCIES,
    Opcode,
    TimingModel,
)
from repro.ir.tuples import Imm, IRTuple, Ref, TupleProgram
from repro.synth.corpus import BenchmarkCase, compile_case
from repro.synth.generator import GeneratorConfig, generate_block

__all__ = ["DrawnCorpus", "compile_cases", "draw_corpus", "supported"]

_OP_WEIGHTS = tuple(OP_FREQUENCIES[op] for op in ALU_OPCODES)
#: ``itertools.accumulate`` exactly as ``random.choices`` builds it, so
#: the float comparisons below see bit-identical cumulative weights.
_OP_CUM = tuple(accumulate(_OP_WEIGHTS))
_OP_TOTAL = _OP_CUM[-1] + 0.0

_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF
_MAG = 0x9908B0DF

#: ``randbelow`` rejection window: words gathered per stream per round.
_W = 16


def supported(config: GeneratorConfig) -> bool:
    """True when the vectorized generator covers this configuration."""
    return config.p_nested == 0.0


#: Initial MT state matrices keyed by the seed tuple.  Seeding a
#: CPython ``Random`` per stream costs more than a whole corpus draw,
#: and every sweep point of a preset draws the *same* attempt seeds
#: (count and master seed are fixed across points) -- one cached
#: matrix serves the entire sweep, copied per corpus.
_STATE_CACHE: dict[tuple, "object"] = {}
_STATE_CACHE_MAX = 8


def _initial_states(np, seeds):
    key = tuple(seeds)
    states = _STATE_CACHE.get(key)
    if states is None:
        states = np.empty((len(seeds), 624), dtype=np.uint32)
        for k, seed in enumerate(seeds):
            # getstate()[1] is the 624-word state plus the output index;
            # a fresh Random starts exhausted (index 624).
            states[k] = random.Random(seed).getstate()[1][:624]
        while len(_STATE_CACHE) >= _STATE_CACHE_MAX:  # drop oldest
            _STATE_CACHE.pop(next(iter(_STATE_CACHE)))
        _STATE_CACHE[key] = states
    return states.copy()


class _VecRng:
    """``C`` Mersenne-Twister streams, draw-for-draw equal to CPython's.

    All consumption methods take a ``rows`` index array selecting the
    streams that draw this step; a stream not selected consumes
    nothing, which is how the data-dependent draw patterns of
    ``generate_block`` (constant vs variable operands, rejection
    loops) stay aligned per stream.
    """

    def __init__(self, np, seeds) -> None:
        self._np = np
        self._mt = _initial_states(np, seeds)
        # Never read before _refill writes it: streams start exhausted
        # (pos 624), so the first consumption of any stream twists and
        # re-tempers its whole block.  No zeroing needed.
        self._buf = np.empty_like(self._mt)
        # Flat view + per-stream word base: ``_flat[rows * 624 + pos]``
        # gathers one word per stream in a single take instead of a 2-D
        # fancy index; ``_buf[exhausted] = ...`` writes through to it.
        self._flat = self._buf.reshape(-1)
        self._pos = np.full(len(seeds), 624, dtype=np.int64)
        self._win = np.arange(_W, dtype=np.int64)  # randbelow window

    def _twist(self, mt) -> None:
        np = self._np
        y = (mt[:, :623] & np.uint32(_UPPER)) | (mt[:, 1:] & np.uint32(_LOWER))
        mag = np.where((y & np.uint32(1)).astype(bool), np.uint32(_MAG), np.uint32(0))
        # The three chunks mirror the in-place genrand loop: indices
        # below 227 read original state, the rest read already-updated
        # words, and the wrap-around element blends both.
        mt[:, 0:227] = mt[:, 397:624] ^ (y[:, 0:227] >> np.uint32(1)) ^ mag[:, 0:227]
        mt[:, 227:454] = mt[:, 0:227] ^ (y[:, 227:454] >> np.uint32(1)) ^ mag[:, 227:454]
        mt[:, 454:623] = mt[:, 227:396] ^ (y[:, 454:623] >> np.uint32(1)) ^ mag[:, 454:623]
        y_last = (mt[:, 623] & np.uint32(_UPPER)) | (mt[:, 0] & np.uint32(_LOWER))
        mag_last = np.where(
            (y_last & np.uint32(1)).astype(bool), np.uint32(_MAG), np.uint32(0)
        )
        mt[:, 623] = mt[:, 396] ^ (y_last >> np.uint32(1)) ^ mag_last

    def _temper(self, mt):
        np = self._np
        y = mt.copy()
        y ^= y >> np.uint32(11)
        y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
        y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
        y ^= y >> np.uint32(18)
        return y

    def _refill(self, exhausted) -> None:
        block = self._mt[exhausted]
        self._twist(block)
        self._mt[exhausted] = block
        self._buf[exhausted] = self._temper(block)
        self._pos[exhausted] = 0

    def _words(self, rows):
        """One 32-bit output word per selected stream."""
        pos = self._pos[rows]
        exhausted = rows[pos == 624]
        if exhausted.size:
            self._refill(exhausted)
            pos = self._pos[rows]
        out = self._flat[rows * 624 + pos]
        self._pos[rows] = pos + 1
        return out

    def skip(self, rows, n_words: int) -> None:
        """Consume ``n_words`` words per stream without tempering them.

        Draws whose *values* are discarded (the ``p_nested == 0`` gate
        still burns its words) only need the positions advanced; the
        skipped words were already tempered wholesale at twist time, so
        nothing is lost.  ``n_words`` must be <= 624 (one boundary).
        """
        pos = self._pos[rows] + n_words
        crossed = pos > 624
        over = rows[crossed]
        if over.size:
            self._refill(over)  # twist now; the wrapped words come
            pos = pos - crossed * 624  # from the fresh block
        self._pos[rows] = pos

    def random(self, rows):
        """``random()``: 53-bit doubles from two words, CPython layout."""
        np = self._np
        pos = self._pos[rows]
        if (pos > 622).any():
            # A stream is at (or crossing) the block boundary: take the
            # word-at-a-time path, which twists lazily per word.
            a = (self._words(rows) >> np.uint32(5)).astype(np.float64)
            b = (self._words(rows) >> np.uint32(6)).astype(np.float64)
        else:
            flat = rows * 624 + pos
            a = (self._flat[flat] >> np.uint32(5)).astype(np.float64)
            b = (self._flat[flat + 1] >> np.uint32(6)).astype(np.float64)
            self._pos[rows] = pos + 2
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def skip2_random(self, rows):
        """``skip(rows, 2)`` followed by :meth:`random`, fused.

        The discarded-gate + gate-value pattern of ``_draw_operand``
        consumes four words per stream; only the last two are gathered.
        """
        np = self._np
        pos = self._pos[rows]
        if (pos > 620).any():
            self.skip(rows, 2)
            return self.random(rows)
        flat = rows * 624 + pos
        a = (self._flat[flat + 2] >> np.uint32(5)).astype(np.float64)
        b = (self._flat[flat + 3] >> np.uint32(6)).astype(np.float64)
        self._pos[rows] = pos + 4
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, rows, k: int):
        """``getrandbits(k)`` for ``1 <= k <= 32``: one word, top bits."""
        return self._words(rows) >> self._np.uint32(32 - k)

    def randbelow(self, rows, n: int):
        """``_randbelow(n)``: per-stream rejection until the draw fits.

        ``bit_length`` rounds *up*, so acceptance sits between 0.5 and
        1.0 -- for the power-of-two sizes the paper shapes use it is
        exactly 0.5, and a word-at-a-time rejection loop averages ~7
        ever-smaller redraw rounds per call.  Instead, gather the next
        ``_W`` words of every stream in one 2-D take and locate each
        stream's first acceptable word with ``argmax``; positions
        advance by exactly the words CPython's loop would consume
        (rejections included), and the unreached window tail stays
        unconsumed.  With acceptance >= 0.5 a 16-word window leaves a
        stream unresolved with probability <= 2**-16, so the loop all
        but always finishes in one round (plus cheap single-word
        rounds for streams within a window of their block edge).
        """
        np = self._np
        k = n.bit_length()
        shift = np.uint32(32 - k)
        out = np.empty(len(rows), dtype=np.int64)
        idx = np.arange(len(rows))  # slots of ``out`` still undecided
        sub = rows
        while idx.size:
            pos = self._pos[sub]
            exhausted = sub[pos == 624]
            if exhausted.size:
                self._refill(exhausted)
                pos = self._pos[sub]
            near = pos > 624 - _W
            if near.any():
                # Streams whose window would cross the twist boundary
                # step one word; a round later they are freshly
                # refilled and take the window path.
                far = ~near
                nsub, nidx, npos = sub[near], idx[near], pos[near]
                draw = self._flat[nsub * 624 + npos] >> shift
                self._pos[nsub] = npos + 1
                ok = draw < n
                out[nidx[ok]] = draw[ok]
                bad = ~ok
                pend_sub, pend_idx = nsub[bad], nidx[bad]
                sub, idx, pos = sub[far], idx[far], pos[far]
            else:
                pend_sub = pend_idx = None
            if idx.size:
                base = sub * 624 + pos
                win = self._flat[base[:, None] + self._win] >> shift
                okm = win < n
                first = okm.argmax(axis=1)
                has = okm.any(axis=1)
                # No accept in the window: all _W words are consumed.
                self._pos[sub] = pos + np.where(has, first + 1, _W)
                vals = win[np.arange(len(sub)), first]
                out[idx[has]] = vals[has]
                bad = ~has
                sub, idx = sub[bad], idx[bad]
            if pend_sub is not None:
                sub = np.concatenate((sub, pend_sub))
                idx = np.concatenate((idx, pend_idx))
        return out

    def choice_weighted(self, rows):
        """``choices(ALU_OPCODES, weights, k=1)``: one double, bisected."""
        np = self._np
        cut = self.random(rows) * _OP_TOTAL
        cum = np.asarray(_OP_CUM, dtype=np.float64)
        idx = np.searchsorted(cum, cut, side="right")
        # choices() bisects with hi = n - 1, clamping the last bucket.
        return np.minimum(idx, len(_OP_CUM) - 1)


class DrawnCorpus:
    """The raw draws of a seed batch, as plain python lists per case.

    ``operand_kind`` is 1 where an operand position drew a constant (its
    index then points into ``constants``), 0 for a variable index.  The
    lists are exactly what the fused front end consumes; no RNG state
    survives into them.
    """

    __slots__ = ("seeds", "constants", "targets", "ops", "operand_kind", "operand_idx")

    def __init__(self, seeds, constants, targets, ops, operand_kind, operand_idx):
        self.seeds = seeds
        self.constants = constants
        self.targets = targets
        self.ops = ops
        self.operand_kind = operand_kind
        self.operand_idx = operand_idx

    def __len__(self) -> int:
        return len(self.seeds)


def draw_corpus(config: GeneratorConfig, seeds) -> DrawnCorpus:
    """Draw every random decision of ``generate_block`` for all seeds.

    Stream ``k`` consumes its underlying Mersenne-Twister words in
    exactly the order ``generate_block(config, random.Random(seeds[k]))``
    would, so the drawn values are identical case by case.
    """
    np = kernels.numpy()
    rng = _VecRng(np, seeds)
    n_cases = len(seeds)
    all_rows = np.arange(n_cases)
    n_stmts = config.n_statements
    lo, hi = config.constant_range
    width = hi - lo + 1

    constants = np.empty((n_cases, config.n_constants), dtype=np.int64)
    for j in range(config.n_constants):
        # randint(lo, hi) == lo + _randbelow(hi - lo + 1), drawn even
        # when the range is a single value (the rejection loop still
        # consumes words for width 1).
        constants[:, j] = lo + rng.randbelow(all_rows, width)

    targets = np.empty((n_cases, n_stmts), dtype=np.int64)
    ops = np.empty((n_cases, n_stmts), dtype=np.int64)
    operand_kind = np.zeros((n_cases, n_stmts, 2), dtype=np.int64)
    operand_idx = np.empty((n_cases, n_stmts, 2), dtype=np.int64)

    # _draw_operand consumes its p_nested gate draw whenever recursion
    # is *possible* (depth < max_depth), even though p_nested == 0
    # means it never fires.  Top-level operands sit at depth 1.
    nested_gate = 1 < config.max_depth

    for s in range(n_stmts):
        targets[:, s] = rng.randbelow(all_rows, config.n_variables)
        ops[:, s] = rng.choice_weighted(all_rows)
        for side in (0, 1):
            if nested_gate:
                # The gate value is discarded when p_nested == 0 (the
                # only shape ``supported`` admits); burn its two words
                # and gather only the constant-vs-variable draw.
                gate = rng.skip2_random(all_rows)
            else:
                gate = rng.random(all_rows)
            is_const = gate < config.p_constant_operand
            const_rows = all_rows[is_const]
            var_rows = all_rows[~is_const]
            operand_kind[const_rows, s, side] = 1
            if const_rows.size:
                operand_idx[const_rows, s, side] = rng.randbelow(
                    const_rows, config.n_constants
                )
            if var_rows.size:
                operand_idx[var_rows, s, side] = rng.randbelow(
                    var_rows, config.n_variables
                )

    obs_prof.add_bytes(
        "genvec.drawn",
        constants.nbytes
        + targets.nbytes
        + ops.nbytes
        + operand_kind.nbytes
        + operand_idx.nbytes,
    )
    return DrawnCorpus(
        [int(s) for s in seeds],
        constants.tolist(),
        targets.tolist(),
        ops.tolist(),
        operand_kind.tolist(),
        operand_idx.tolist(),
    )


#: Commutative ALU opcodes as indices into :data:`ALU_OPCODES` -- the
#: fused loop keys its CSE table on the int (C-level hash) rather than
#: the enum member (python-level ``__hash__`` on every dict probe).
_COMMUTATIVE_IDX = frozenset(
    i for i, op in enumerate(ALU_OPCODES) if op in COMMUTATIVE_OPCODES
)

#: Interned ``Ref(id=N)`` reprs: every case re-derives the same few
#: hundred strings for CSE's commutative-operand ordering, so build
#: each once.  The table grows in blocks to whatever id range the
#: largest case needs.
_REF_REPRS: list[str] = []


def _ref_repr(tid: int) -> str:
    table = _REF_REPRS
    if tid >= len(table):
        table.extend(
            f"Ref(id={i})" for i in range(len(table), tid + 256)
        )
    return table[tid]


_new = object.__new__
_setattr = object.__setattr__


def _fast_tuple(tid, opcode, operands, var=None) -> IRTuple:
    """Construct an IRTuple skipping ``__post_init__`` shape checks.

    The fused pass builds tuples shape-correct by construction (Loads
    get no operands and a var, ALUs exactly two operands, Stores one),
    so the per-tuple validation is pure overhead here.  Equality and
    hashing are field-based and unaffected.
    """
    t = _new(IRTuple)
    _setattr(t, "id", tid)
    _setattr(t, "opcode", opcode)
    _setattr(t, "operands", operands)
    _setattr(t, "var", var)
    return t


def _compile_drawn(
    config: GeneratorConfig,
    seed: int,
    constants,
    targets,
    stmt_ops,
    stmt_kinds,
    stmt_idxs,
    variables,
    t_load,
    t_store,
    alu_timing,
) -> "VecCase":
    """Fused codegen + fold + CSE + DCE over one case's drawn arrays.

    Raw tuple ids are simulated exactly as :class:`CodeGenerator`
    assigns them -- a Load id on a variable's first read, one ALU id
    and one Store id per statement -- so the surviving tuples carry
    the same gappy numbering the sequential pipeline produces.

    Operands travel as ``(kind, payload, repr)`` triples: the cached
    third element is the dataclass repr CSE sorts commutative operands
    by, computed once per distinct operand instead of per use.
    """
    env: dict[int, tuple] = {}  # var index -> ("i", v, repr) | ("r", id, repr)
    next_id = 0
    loads: list[tuple[int, int]] = []  # (id, var index), emission order
    alus: dict[int, tuple] = {}  # id -> (op index, left, right), kept only
    cse_seen: dict = {}
    last_store: dict[int, tuple] = {}  # var index -> (store id, value)
    const_ops = [("i", v, f"Imm(value={v})") for v in constants]
    # Locals for every attribute/global the statement loop touches;
    # this function is the per-case floor of the batched pipeline.
    env_get = env.get
    cse_get = cse_seen.get
    loads_append = loads.append
    commutative = _COMMUTATIVE_IDX
    ref_repr = _ref_repr

    for s, target in enumerate(targets):
        kinds = stmt_kinds[s]
        idxs = stmt_idxs[s]
        if kinds[0]:
            left = const_ops[idxs[0]]
        else:
            left = env_get(idxs[0])
            if left is None:
                left = ("r", next_id, ref_repr(next_id))
                loads_append((next_id, idxs[0]))
                env[idxs[0]] = left
                next_id += 1
        if kinds[1]:
            right = const_ops[idxs[1]]
        else:
            right = env_get(idxs[1])
            if right is None:
                right = ("r", next_id, ref_repr(next_id))
                loads_append((next_id, idxs[1]))
                env[idxs[1]] = right
                next_id += 1
        op_idx = stmt_ops[s]
        alu_id = next_id
        next_id += 1
        if left[0] == "i" and right[0] == "i":
            # fold_constants: the whole subexpression collapses to an
            # immediate and the ALU tuple is never kept.
            folded = apply_op(ALU_OPCODES[op_idx], left[1], right[1])
            value = ("i", folded, f"Imm(value={folded})")
        else:
            # sorted(key=repr) is stable, so ties keep (left, right).
            if op_idx in commutative and right[2] < left[2]:
                key = (op_idx, right, left)
            else:
                key = (op_idx, left, right)
            value = cse_get(key)
            if value is None:
                value = ("r", alu_id, ref_repr(alu_id))
                cse_seen[key] = value
                alus[alu_id] = (op_idx, left, right)
        store_id = next_id
        next_id += 1
        last_store[target] = (store_id, value)
        env[target] = value

    # eliminate_dead_code: only the last store per variable is
    # observable; walk its references backwards for liveness.
    live: set[int] = set()
    stack = [value[1] for _, value in last_store.values() if value[0] == "r"]
    while stack:
        tid = stack.pop()
        if tid in live:
            continue
        live.add(tid)
        kept = alus.get(tid)
        if kept is not None:
            for operand in (kept[1], kept[2]):
                if operand[0] == "r":
                    stack.append(operand[1])

    memo: dict = {}

    def _operand(value):
        op = memo.get(value)
        if op is None:
            memo[value] = op = Ref(value[1]) if value[0] == "r" else Imm(value[1])
        return op

    # (id, int refs, tuple) records; the fused pass knows every ref as
    # an int already, sparing the ``IRTuple.refs`` isinstance walk when
    # the DAG is assembled below.
    records: list[tuple] = []
    for load_id, var_idx in loads:
        if load_id in live:
            records.append(
                (
                    load_id,
                    (),
                    _fast_tuple(load_id, Opcode.LOAD, (), variables[var_idx]),
                    t_load,
                )
            )
    for alu_id, (op_idx, left, right) in alus.items():
        if alu_id in live:
            if left[0] == "r":
                refs = (left[1], right[1]) if right[0] == "r" else (left[1],)
            else:
                refs = (right[1],)
            records.append(
                (
                    alu_id,
                    refs,
                    _fast_tuple(
                        alu_id, ALU_OPCODES[op_idx], (_operand(left), _operand(right))
                    ),
                    alu_timing[op_idx],
                )
            )
    for var_idx, (store_id, value) in last_store.items():
        records.append(
            (
                store_id,
                (value[1],) if value[0] == "r" else (),
                _fast_tuple(store_id, Opcode.STORE, (_operand(value),), variables[var_idx]),
                t_store,
            )
        )
    records.sort()  # ids are unique, so only the first element compares

    # The construction guarantees the TupleProgram invariants (unique
    # increasing ids, refs point backwards), so skip the O(n) validate
    # of the normal constructor on this hot path.
    program = TupleProgram.__new__(TupleProgram)
    program.tuples = [rec[2] for rec in records]

    # Assemble the DAG exactly as ``InstructionDAG.from_program`` +
    # ``build`` would -- same dict insertion orders (ENTRY, EXIT, then
    # ids ascending), same edge order (program order, operand order,
    # duplicate operands collapsed), same dummy wiring order, and the
    # very same Kahn tie-breaking -- just without re-walking operand
    # objects.  The check-mode cross-check in ``compile_cases`` pins
    # this equivalence structurally.
    # Latency insertion order (ENTRY, EXIT, ids ascending) seeds the
    # succs/preds dict order and thereby Kahn's frontier order -- fill
    # it from the sorted records, timings hoisted per batch above.
    latency: dict = {ENTRY: ZERO, EXIT: ZERO}
    payload: dict = {}
    for tid, _refs, _tup, t in records:
        latency[tid] = t
    succs: dict = {n: [] for n in latency}
    preds: dict = {n: [] for n in latency}
    for tid, refs, tup, _t in records:
        payload[tid] = tup
        if refs:
            if len(refs) == 2 and refs[0] == refs[1]:
                refs = refs[:1]  # duplicate operand: one precedence edge
            for u in refs:
                succs[u].append(tid)
                preds[tid].append(u)
    for tid, _refs, _tup, _t in records:
        if not preds[tid]:
            succs[ENTRY].append(tid)
            preds[tid].append(ENTRY)
        if not succs[tid]:
            succs[tid].append(EXIT)
            preds[EXIT].append(tid)
    if not records:  # empty program: entry -> exit
        succs[ENTRY].append(EXIT)
        preds[EXIT].append(ENTRY)
    dag = InstructionDAG(
        _latency=latency,
        _succs={n: tuple(s) for n, s in succs.items()},
        _preds={n: tuple(p) for n, p in preds.items()},
        _topo=_topological_order(latency, succs, preds),
        _payload=payload,
    )
    return VecCase(seed, config, program, dag)


class VecCase(BenchmarkCase):
    """A :class:`BenchmarkCase` whose AST-side fields rebuild on demand.

    The vectorized path never materializes the basic block or the raw
    tuple program; accessing ``block``/``raw_program`` regenerates them
    through the canonical python path (cheap, and bit-identical since
    the drawn values are).
    """

    def __init__(self, seed, config, program, dag) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "dag", dag)

    def __getattr__(self, name):
        if name == "block":
            block = generate_block(self.config, random.Random(self.seed))
            object.__setattr__(self, "block", block)
            return block
        if name == "raw_program":
            from repro.ir import generate_tuples

            raw = generate_tuples(self.block)
            object.__setattr__(self, "raw_program", raw)
            return raw
        raise AttributeError(name)


def _compile_vectorized(
    config: GeneratorConfig, seeds, timing: TimingModel
) -> list[BenchmarkCase]:
    drawn = draw_corpus(config, seeds)
    return compile_drawn_cases(drawn, config, timing)


def compile_drawn_cases(
    drawn: DrawnCorpus, config: GeneratorConfig, timing: TimingModel
) -> list[BenchmarkCase]:
    """Fused front end over an already-drawn corpus."""
    variables = config.variable_names()
    # One timing lookup per opcode for the whole batch; the per-case
    # assembly attaches these to each record instead of re-keying a
    # dict by enum member per tuple.
    t_load = timing[Opcode.LOAD]
    t_store = timing[Opcode.STORE]
    alu_timing = [timing[op] for op in ALU_OPCODES]
    return [
        _compile_drawn(
            config,
            drawn.seeds[i],
            drawn.constants[i],
            drawn.targets[i],
            drawn.ops[i],
            drawn.operand_kind[i],
            drawn.operand_idx[i],
            variables,
            t_load,
            t_store,
            alu_timing,
        )
        for i in range(len(drawn))
    ]


def compile_cases(
    config: GeneratorConfig,
    seeds,
    timing: TimingModel = DEFAULT_TIMING,
) -> list[BenchmarkCase]:
    """Compile a batch of seeds, vectorized when numpy serves.

    The dispatch contract matches every other kernel: numpy's presence
    plus ``THRESHOLDS["genvec"]`` (batch size) pick the path, the
    decision is counted, and check mode re-derives every case through
    :func:`compile_case` and asserts the optimized programs match.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if supported(config) and kernels.use_numpy("genvec", len(seeds)):
        with kernels.timed("genvec", "numpy"):
            cases = _compile_vectorized(config, seeds, timing)
        if kernels.checking():
            for case in cases:
                expected = compile_case(config, case.seed, timing)
                kernels.verify(
                    "genvec", case.program.tuples, expected.program.tuples
                )
        return cases
    with kernels.timed("genvec", "python"):
        return [compile_case(config, seed, timing) for seed in seeds]
