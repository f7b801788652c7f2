"""Annular link states, affine connectivity diagrams, and their product.

Conventions, fixed once and used by every module:

* Nodes are 0-indexed internally; the seam (the cut realizing the periodic
  boundary) sits between node n-1 and node 0.  The CLI maps to the 1-based
  labels of the literature, where e_0 is the generator wrapping the seam.
* Curves are tracked in the universal cover: node i lifts to integer
  position i, and position p + n is one full turn to the right.  An arc
  {i, j} with i < j either stays in the window (no seam crossing) or
  connects i to j - n (one crossing); wider lifts would self-intersect.
* A through-line crossing the seam leftward while traversed downward
  counts +1; rightward counts -1.  Seam copies live at positions k n - 1/2,
  so the signed crossing count of a monotone descent from cover position a
  to b is f(a) - f(b) with f(x) = floor((2x+1)/(2n)).
* A diagram is stored in sandwich normal form (bottom state, mid, top
  state).  For d > 0, mid is the defect-index shift: bottom defect a
  attaches to top defect a + mid in the cover, so the translation generator
  Omega has mid = +1.  For d = 0, mid counts non-contractible loops.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

DEFECT = None  # node descriptor for a defect; arcs are (partner, crosses)


class LinkState:
    """An annular link state: n nodes, each a defect or one end of an arc.

    Stored as ``cover``: for node i, the cover position of its partner as
    seen from i in the principal copy (None at a defect), so an arc crosses
    the seam exactly when that position lies outside [0, n).  Every state
    is interned, one object per cover, so states compare and hash by
    identity; order (``sort_key``) and a diagram's stored hash read
    ``cover``.  ``nodes`` gives the same state as descriptors,
    ``(partner, crosses)`` or DEFECT.  ``LinkState(nodes)`` checks outside
    input and returns the interned state, adding nothing to the pool when
    it rejects; the package builds its own states through ``_state``.
    Pickle and copy give back the interned state.
    """

    __slots__ = ("n", "cover", "defects", "n_crossing", "_hash", "_art",
                 "_json")

    def __new__(cls, nodes):
        nodes = list(nodes)
        n = len(nodes)
        cover = [None] * n
        for i, desc in enumerate(nodes):
            if desc is DEFECT:
                continue
            if not isinstance(desc, (tuple, list)) or len(desc) != 2:
                raise ValueError(f"bad descriptor {desc!r} at node {i}")
            j, crosses = desc
            if type(j) is not int or not 0 <= j < n or j == i:
                raise ValueError(f"bad partner {j!r} at node {i}")
            if type(crosses) is not bool:
                raise ValueError(f"bad seam flag {crosses!r} at node {i}")
            cover[i] = (j - n if i < j else j + n) if crosses else j
        for i, x in enumerate(cover):
            if x is not None and cover[x % n] != i + x % n - x:
                raise ValueError(f"pairing not involutive at node {i}")
        cover = tuple(cover)
        if not _planar(cover):
            raise ValueError("link state is not planar on the annulus")
        return _state(cover)

    def __reduce__(self):
        return _state, (self.cover,)

    def _set(self, cover: tuple):
        self.n = len(cover)
        self.cover = cover
        self.defects = tuple(i for i, x in enumerate(cover) if x is None)
        self.n_crossing = sum(1 for x in cover if x is not None and x < 0)
        self._hash = hash(cover)  # read by the hash of a Diagram
        # built on first use and kept: a basis shares few distinct states
        self._art = self._json = None

    @property
    def nodes(self) -> tuple:
        n = self.n
        return tuple(DEFECT if x is None else (x % n, not 0 <= x < n)
                     for x in self.cover)

    @property
    def d(self) -> int:
        return len(self.defects)

    def crossing_count(self) -> int:
        return self.n_crossing

    def sort_key(self):
        # per node: -1 at a defect, 2 partner + crosses at an arc end
        n = self.n
        return tuple(-1 if x is None else 2 * (x % n) + (not 0 <= x < n)
                     for x in self.cover)

    def __repr__(self):
        return f"LinkState({self.art()!r})"

    def art(self) -> str:
        """One-character glyph per node: | defect, ( ) plain arc, < > seam arc."""
        if self._art is None:
            n = self.n
            self._art = "".join("|" if x is None else "<" if x < 0
                                else ">" if x >= n else "(" if x > i else ")"
                                for i, x in enumerate(self.cover))
        return self._art

    def to_json(self):
        """The nodes as JSON; one list per state, shared by every caller."""
        if self._json is None:
            self._json = [("D" if x is DEFECT else {"p": x[0], "seam": x[1]})
                          for x in self.nodes]
        return self._json

    @staticmethod
    def from_json(entries):
        if not isinstance(entries, list):
            raise ValueError(f"link state must be a list, got {entries!r}")
        nodes = []
        for e in entries:
            if e == "D":
                nodes.append(DEFECT)
            elif isinstance(e, dict) and "p" in e and "seam" in e:
                nodes.append((e["p"], e["seam"]))
            else:
                raise ValueError(f"bad link state entry {e!r}")
        return LinkState(nodes)


def _planar(cover: tuple) -> bool:
    """Noncrossing in the cover; no defect is overarched."""
    n = len(cover)
    lifts = [(i, x) for i, x in enumerate(cover) if x is not None and x > i]
    for (a1, b1), (a2, b2) in itertools.combinations(lifts, 2):
        for k in (-n, 0, n):
            a, b = a2 + k, b2 + k
            if (a1 < a < b1) != (a1 < b < b1):
                return False
    for p, x in enumerate(cover):
        if x is None:
            for a, b in lifts:
                for k in (-n, 0, n):
                    if a < p + k < b:
                        return False
    return True


_state_pool: dict = {}


def _state(cover: tuple) -> LinkState:
    """The interned state with these partner cover positions, unchecked:
    every state the package builds, planar by construction."""
    st = _state_pool.get(cover)
    if st is None:
        st = _state_pool[cover] = object.__new__(LinkState)
        st._set(cover)
    return st


def parity(v: LinkState) -> int:
    """The literature convention, kept verbatim: 0 for an odd number of
    seam-crossing arcs, 1 for an even number (inverted vs. the natural
    indicator)."""
    return 1 - (v.crossing_count() % 2)


def sigma_bt(b: LinkState, t: LinkState) -> int:
    """0 when b and t have equal parity, 1 otherwise."""
    return (b.crossing_count() + t.crossing_count()) % 2


def all_defect(n: int) -> LinkState:
    return _state((None,) * n)


def _matchings(positions):
    """Every noncrossing perfect matching of a run of cover positions."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for k in range(1, len(positions), 2):
        for inner in _matchings(positions[1:k]):
            for outer in _matchings(positions[k + 1:]):
                yield ((first, positions[k]),) + inner + outer


@lru_cache(maxsize=None)
def link_states(n: int, d: int):
    """All of B_{n,d}, ordered lexicographically on node descriptors.

    Built planar rather than filtered: no defect may be overarched, so with
    defects every arc lies in one gap between cyclically consecutive
    defects, matched noncrossing in the cover.  With none, the arcs are the
    cyclic bracket matching of a choice of n/2 left ends, read from a node
    where the bracket depth is least.  An arc from cover position a to
    b > a is seen from node a % n at b - (a // n) n, and from node b % n
    at a - (b // n) n."""
    if d < 0 or d > n or (n - d) % 2:
        raise ValueError(f"no link states with n={n}, d={d}")
    arcsets = []
    if d:
        for defects in itertools.combinations(range(n), d):
            ends = defects[1:] + (defects[0] + n,)
            gaps = [tuple(range(p + 1, q)) for p, q in zip(defects, ends)]
            if not any(len(g) % 2 for g in gaps):
                arcsets += (sum(parts, ()) for parts in
                            itertools.product(*map(_matchings, gaps)))
    else:
        for lefts in itertools.combinations(range(n), n // 2):
            depth, low, start = 0, 0, 0
            for i in range(n):
                if depth < low:
                    low, start = depth, i
                depth += 1 if i in lefts else -1
            stack, arcs = [], []
            for pos in range(start, start + n):
                if pos % n in lefts:
                    stack.append(pos)
                else:
                    arcs.append((stack.pop(), pos))
            arcsets.append(arcs)
    out = []
    for arcs in arcsets:
        cover = [None] * n
        for a, b in arcs:
            cover[a % n] = b - a // n * n
            cover[b % n] = a - b // n * n
        out.append(_state(tuple(cover)))
    out.sort(key=LinkState.sort_key)
    return tuple(out)


class Diagram:
    """An affine connectivity in sandwich normal form: a value, not interned.
    Equality reads the mid and the faces' identities (states are
    interned); the hash, stored, reads the faces' covers and the mid."""

    __slots__ = ("n", "bottom", "top", "mid", "even", "_hash")

    def __init__(self, bottom: LinkState, top: LinkState, mid: int):
        n = bottom.n
        if n != top.n:
            raise ValueError("bottom/top size mismatch")
        d = len(bottom.defects)
        if d != len(top.defects):
            raise ValueError("bottom/top defect count mismatch")
        if d == 0 and mid < 0:
            raise ValueError("loop count must be nonnegative")
        self.n = n
        self.bottom = bottom
        self.top = top
        self.mid = mid
        self.even = (bottom.n_crossing + top.n_crossing + mid) % 2 == 0
        self._hash = hash((bottom._hash, top._hash, mid))

    @property
    def d(self) -> int:
        return self.bottom.d

    def is_even(self) -> bool:
        """Even = an even number of seam crossings in total."""
        return self.even

    def sort_key(self):
        return (-self.d, self.bottom.sort_key(), self.top.sort_key(), self.mid)

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.bottom is other.bottom
                and self.top is other.top and self.mid == other.mid)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Diagram({self.bottom.art()!r}, mid={self.mid}, {self.top.art()!r})"

    def art(self) -> str:
        label = f"f^{self.mid}" if self.d == 0 else f"O^{self.mid}"
        return f"top: {self.top.art()}  mid: {label}  bot: {self.bottom.art()}"

    def to_json(self):
        return {"n": self.n, "d": self.d, "bottom": self.bottom.to_json(),
                "top": self.top.to_json(), "mid": self.mid}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or type(obj.get("mid")) is not int:
            raise ValueError(f"diagram needs an int mid: {obj!r}")
        return Diagram(LinkState.from_json(obj.get("bottom")),
                       LinkState.from_json(obj.get("top")), obj["mid"])


def flip(c: Diagram) -> Diagram:
    """The vertical flip (anti-involution): swap faces, negate the winding."""
    mid = -c.mid if c.d > 0 else c.mid
    return Diagram(c.top, c.bottom, mid)


# -- generators --------------------------------------------------------------

def identity(n: int) -> Diagram:
    a = all_defect(n)
    return Diagram(a, a, 0)


def omega(n: int, power: int = 1) -> Diagram:
    a = all_defect(n)
    return Diagram(a, a, power)


def omega_inv(n: int) -> Diagram:
    return omega(n, -1)


def e(n: int, j: int) -> Diagram:
    """The Temperley-Lieb generator e_j, 0 <= j <= n-1 in the usual 1-based
    labels; e_0 is the one wrapping the seam."""
    if n < 2 or not 0 <= j <= n - 1:
        raise ValueError(f"e_{j} undefined for n={n}")
    cover = [None] * n
    if j == 0:
        cover[n - 1], cover[0] = n, -1
    else:
        cover[j - 1], cover[j] = j, j - 1
    v = _state(tuple(cover))
    return Diagram(v, v, 0)


def cup_state(n: int, k: int) -> LinkState:
    """The link state with k nested seam-crossing arcs {j, n-1-j} and
    n - 2k central defects (the only states surviving P_n on both sides)."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"cup state needs 0 <= 2k <= n, got k={k}")
    cover = [None] * n
    for j in range(k):
        cover[j], cover[n - 1 - j] = -1 - j, n + j
    return _state(tuple(cover))


# -- tracing -----------------------------------------------------------------

# Port ids: bottom node i -> i, top node i -> n + i.  A wire entry maps a
# port to (target port id, cover position of the target when the source sits
# in the principal copy).

@lru_cache(maxsize=1 << 17)
def _wires(c: Diagram):
    n = c.n
    tgt = [0] * (2 * n)
    pos = [0] * (2 * n)
    for i, cv in enumerate(c.bottom.cover):
        if cv is not None:
            tgt[i] = cv % n
            pos[i] = cv
    for i, cv in enumerate(c.top.cover):
        if cv is not None:
            tgt[n + i] = n + cv % n
            pos[n + i] = cv
    d = c.d
    if d:
        db, dt = c.bottom.defects, c.top.defects
        for a, p in enumerate(db):
            t = a + c.mid
            tpos = dt[t % d] + n * (t // d)
            tgt[p] = n + tpos % n
            pos[p] = tpos
        for b, p in enumerate(dt):
            a = b - c.mid
            bpos = db[a % d] + n * (a // d)
            tgt[n + p] = bpos % n
            pos[n + p] = bpos
    return tuple(tgt), tuple(pos)


def from_cover(bot, top, through, loops: int) -> Diagram:
    """Assemble a diagram from partner cover positions.

    bot[i] (top[i]) is the cover position of the other end of the arc at
    bottom (top) node i, None at a defect; through[i] is the top cover
    position reached from bottom defect i.  ``loops`` is the mid when no
    defect survives.
    """
    n = len(bot)
    bottom, top_state = _state(tuple(bot)), _state(tuple(top))
    d = bottom.d
    if not d:
        return Diagram(bottom, top_state, loops)
    index_of = {p: a for a, p in enumerate(top_state.defects)}
    mid = None
    for a, pb in enumerate(bottom.defects):
        x = through[pb]
        r = index_of[x % n] + d * (x // n) - a
        if mid is None:
            mid = r
        elif mid != r:
            raise AssertionError("through-lines with unequal winding")
    return Diagram(bottom, top_state, mid)


def multiply_raw(c1: Diagram, c2: Diagram):
    """Stack c2 over c1 and trace every curve in the universal cover.

    Returns (canonical Diagram, beta_exp, nc_gained): the number of
    contractible loops erased and of new non-contractible loops formed.
    For a d = 0 result the returned diagram's mid already includes both the
    inherited and the newly gained non-contractible loops.
    """
    n = c1.n
    if n != c2.n:
        raise ValueError("size mismatch")
    t1, p1 = _wires(c1)
    t2, p2 = _wires(c2)
    seen = bytearray(n)   # interface base nodes consumed

    def walk(layer, port, stop=None):
        # Follow a curve from a port of c1 (layer 0) or c2 (layer 1) to an
        # outer face, (layer, port, cover position) there, or on a closed
        # loop back to interface node stop, (layer, stop, winding).
        shift = 0
        while True:
            t = (t2 if layer else t1)[port]
            p = (p2 if layer else p1)[port] + shift
            if (t >= n) == layer:        # c1's bottom or c2's top
                return layer, t, p
            base = t % n
            seen[base] = 1
            shift = p - base
            if base == stop:
                return layer, base, shift
            layer, port = 1 - layer, base + n * layer  # the other side

    bot = [None] * n     # base bottom node -> partner cover position
    topp = [None] * n
    through = [None] * n  # base bottom node -> top cover position
    ends = set()          # c2 top ports that end a through-line
    for i in range(n):
        if bot[i] is None:
            layer, t, p = walk(0, i)
            if layer:
                through[i] = p
                ends.add(t)
            else:
                bot[i] = p
                bot[t] = i + (t - p)
    for i in range(n):
        if n + i not in ends and topp[i] is None:
            layer, t, p = walk(1, n + i)
            if not layer:
                raise AssertionError("top trace escaped through the bottom")
            topp[i] = p
            topp[t - n] = i + (t - n - p)

    beta_exp = 0
    nc_gained = 0
    for start in range(n):
        if seen[start]:
            continue
        delta = walk(1, start, start)[2]
        if delta == 0:
            beta_exp += 1
        elif delta == n or delta == -n:
            nc_gained += 1
        else:
            raise AssertionError("loop with |winding| > 1")

    inherited = (c1.mid if c1.d == 0 else 0) + (c2.mid if c2.d == 0 else 0)
    return (from_cover(bot, topp, through, inherited + nc_gained), beta_exp,
            nc_gained)


@lru_cache(maxsize=1 << 14)
def trace_interface(lower: LinkState, upper: LinkState):
    """Trace the middle strip of a product c1 * c2, with lower = c1.top and
    upper = c2.bottom.  All of the product's curve topology is fixed here;
    the outer faces only relabel (see ``outer_face``).

    Defects are named by cover index: the defect at cover position x has
    index (its rank among the state's defects at x % n) + d * (x // n).
    Returns (beta_exp, nc, lower, upper, d_new):

    * beta_exp, nc: contractible and non-contractible closed loops;
    * lower, upper: each side's record (pairs, live, anchor).  pairs are
      (a, b) for the side's defects a (0 <= a < d) and b joined through the
      other side's arcs; live is the bitmask of the defects in [0, d) that
      pass through; anchor is the cover index of the first lower defect
      that does (on the upper side: of the upper defect it reaches), None
      when none does;
    * d_new: the number of through-lines.
    """
    n = lower.n
    lc, uc = lower.cover, upper.cover
    lower_index = {p: a for a, p in enumerate(lower.defects)}
    upper_index = {p: a for a, p in enumerate(upper.defects)}
    dl, du = len(lower_index), len(upper_index)
    seen = bytearray(n)

    def walk(pos, layer, stop=None):
        # Alternate upper (layer 1) and lower (layer 0) arcs from pos until
        # a defect or node stop; return (the layer there, cover position).
        while True:
            base = pos % n
            part = (uc if layer else lc)[base]
            if part is None:
                return layer, pos
            pos = part + (pos - base)
            seen[pos % n] = 1
            if pos % n == stop:
                return layer, pos
            layer = 1 - layer

    lower_pairs, upper_pairs, links = [], [], []
    for a, p in enumerate(lower.defects):
        if seen[p]:
            continue
        seen[p] = 1
        layer, x = walk(p, 1)
        base = x % n
        if layer:
            links.append((a, upper_index[base] + du * (x // n)))
        else:
            lower_pairs.append((a, lower_index[base] + dl * (x // n)))
    for a, p in enumerate(upper.defects):
        if seen[p]:
            continue
        seen[p] = 1
        layer, x = walk(p, 0)
        if not layer:
            raise AssertionError("upper defect reached an untraced lower one")
        upper_pairs.append((a, upper_index[x % n] + du * (x // n)))

    beta_exp = 0
    nc = 0
    for start in range(n):
        if seen[start]:
            continue
        delta = walk(start, 1, start)[1] - start
        if delta == 0:
            beta_exp += 1
        elif delta == n or delta == -n:
            nc += 1
        else:
            raise AssertionError("loop with |winding| > 1")
    a0, j0 = links[0] if links else (None, None)
    lower_side = tuple(lower_pairs), sum(1 << a for a, _ in links), a0
    upper_side = tuple(upper_pairs), sum(1 << j % du for _, j in links), j0
    return beta_exp, nc, lower_side, upper_side, len(links)


@lru_cache(maxsize=1 << 14)
def outer_face(state: LinkState, shift: int, side, d_new: int):
    """One factor's outer face after the interface of a product.

    ``state`` is the factor's outer face; its defect k meets the interface
    as inner defect k + shift (c1 = (bottom, m, top): shift m; c2: shift
    -m).  ``side`` is the inner side's record from ``trace_interface``:
    the inner defects joined in the interface, the bitmask of those in
    [0, d) that pass through, and the anchor, one inner cover index that
    does.  Returns (new state, the new cover index of the defect reaching
    the anchor), the index None when no defect survives.
    """
    pairs, live, anchor = side
    n, defects = state.n, state.defects
    d = len(defects)
    if pairs:
        cover = list(state.cover)
        for a, b in pairs:
            qa, ra = divmod(a - shift, d)
            qb, rb = divmod(b - shift, d)
            i, j, w = defects[ra], defects[rb], n * (qb - qa)
            cover[i], cover[j] = j + w, i - w
        state = _state(tuple(cover))
    if not d_new:
        return state, None
    q, r = divmod(anchor - shift, d)
    return state, q * d_new + sum(live >> (k + shift) % d & 1
                                  for k in range(r))


def act_on_state(c: Diagram, w: LinkState):
    """Draw the link state w above the diagram c and read off the bottom.

    This is half of the product c * (w, 0, w): the same interface trace,
    with only c's outer face relabelled.  Returns (beta_exp, nc_count,
    z_exp, new LinkState), or None when two defects of w are joined.  z_exp
    counts seam crossings of the defects, leftward-downward positive; nc
    loops can only arise for d = 0.
    """
    if c.n != w.n:
        raise ValueError("size mismatch")
    beta_exp, nc, lower, (joined, _, j), d_new = trace_interface(c.top, w)
    if joined:
        return None
    state, li = outer_face(c.bottom, c.mid, lower, d_new)
    return beta_exp, nc, j - li if d_new else 0, state
