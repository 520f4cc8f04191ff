"""Reduction systems on path algebras: normal forms, diamond-lemma confluence,
completion, and finite-dimensional quotient algebras.

Semantics follow the diamond lemma for ring theory: a rule set leading -> rest
need not come from an admissible monomial order (the torus families designate
leading terms by surface orientation), so termination of rewriting is enforced
by a step guard rather than by an order argument.
"""

from __future__ import annotations

import warnings

from .errors import CompletionError, EngineError, InfiniteDimensionalError
from .linalg import vec_iadd
from .quiver import AlgebraElement, Path

REWRITE_STEP_LIMIT = 200_000


class Rule:
    """leading -> rest; rest is parallel to leading and means the same element."""

    __slots__ = ("leading", "rest")

    def __init__(self, leading: Path, rest: AlgebraElement):
        self.leading = leading
        self.rest = rest

    def __repr__(self):
        return f"Rule({self.leading} -> {self.rest!r})"


class Ambiguity:
    """An overlap or inclusion of two leading words, with resolution status."""

    __slots__ = ("kind", "rule_a", "rule_b", "word", "resolved", "s_element")

    def __init__(self, kind, rule_a, rule_b, word, resolved, s_element):
        self.kind = kind
        self.rule_a = rule_a
        self.rule_b = rule_b
        self.word = word
        self.resolved = resolved
        self.s_element = s_element

    def __repr__(self):
        state = "resolved" if self.resolved else "UNRESOLVED"
        return f"Ambiguity({self.kind}, rules {self.rule_a}/{self.rule_b}, {self.word}, {state})"


class ConfluenceReport:
    def __init__(self, ambiguities):
        self.ambiguities = list(ambiguities)

    @property
    def confluent(self):
        return all(a.resolved for a in self.ambiguities)

    def __repr__(self):
        return f"ConfluenceReport(confluent={self.confluent}, {len(self.ambiguities)} ambiguities)"


class ReductionSystem:
    def __init__(self, quiver, field, rules=(), order_key=None, trace=None):
        self.quiver = quiver
        self.field = field
        self.rules = []
        self.by_leading = {}
        self.order_key = order_key if order_key is not None else (lambda p: p.sort_key())
        self.trace = trace
        for r in rules:
            self.add_rule(r.leading, r.rest)

    @classmethod
    def from_presentation(cls, pres, trace=None):
        sys_ = cls(pres.quiver, pres.field, order_key=pres.path_order_key, trace=trace)
        f = pres.field
        for lead, rel in pres.oriented_relations():
            c = rel.terms[lead]
            rest = (rel - AlgebraElement.from_path(pres.quiver, f, lead, c)).scale(
                f.neg(f.inv(c))
            )
            sys_.add_element(lead, rest)
        return sys_

    def add_element(self, leading, rest):
        """Add leading -> rest, merging with an existing rule on the same word."""
        existing = self.by_leading.get(leading)
        if existing is not None:
            diff = existing.rest - rest
            if diff.is_zero():
                return
            self.add_oriented(diff)
            return
        self.add_rule(leading, rest)

    def add_rule(self, leading, rest):
        if leading in self.by_leading:
            raise EngineError("duplicate leading path")
        rule = Rule(leading, rest)
        self.rules.append(rule)
        self.by_leading[leading] = rule

    def add_oriented(self, elem):
        """Orient a nonzero element by the order policy and add it as a rule."""
        elem = self.normal_form(elem)
        if elem.is_zero():
            warnings.warn("relation reduces to zero; dropped", stacklevel=2)
            return None
        lead = max(elem.terms, key=self.order_key)
        c = elem.terms[lead]
        f = self.field
        rest = (elem - AlgebraElement.from_path(self.quiver, f, lead, c)).scale(f.neg(f.inv(c)))
        self.add_rule(lead, rest)
        return self.by_leading[lead]

    def _find_redex(self, path: Path):
        """First (position, rule) whose leading word occurs as a factor of path."""
        arrows = path.arrows
        n = len(arrows)
        for pos in range(n):
            for rule in self.rules:
                la = rule.leading.arrows
                k = len(la)
                if pos + k <= n and arrows[pos : pos + k] == la:
                    return pos, rule
        return None

    def reduce_once(self, path: Path, pos, rule):
        """Replace the occurrence of rule.leading at pos inside path."""
        arrows = path.arrows
        k = len(rule.leading.arrows)
        out = AlgebraElement.zero(self.quiver, self.field)
        for s, d in rule.rest.terms.items():
            new = Path(self.quiver, path.start, arrows[:pos] + s.arrows + arrows[pos + k :])
            out = out + AlgebraElement.from_path(self.quiver, self.field, new, d)
        return out

    def normal_form(self, elem: AlgebraElement, step_limit=REWRITE_STEP_LIMIT):
        f = self.field
        steps = 0
        while True:
            hit = None
            for p in sorted(elem.terms, key=Path.sort_key):
                found = self._find_redex(p)
                if found:
                    hit = (p, found)
                    break
            if hit is None:
                return elem
            steps += 1
            if steps > step_limit:
                raise CompletionError("rewriting did not terminate within the step limit")
            p, (pos, rule) = hit
            c = elem.terms[p]
            repl = self.reduce_once(p, pos, rule).scale(c)
            elem = elem - AlgebraElement.from_path(self.quiver, f, p, c) + repl

    def is_irreducible(self, path: Path) -> bool:
        return self._find_redex(path) is None

    def _ambiguities(self):
        out = []
        rules = self.rules
        for i, ra in enumerate(rules):
            a = ra.leading.arrows
            for j, rb in enumerate(rules):
                b = rb.leading.arrows
                # overlap: a proper suffix of a equals a proper prefix of b
                for t in range(1, min(len(a), len(b))):
                    if a[len(a) - t :] == b[:t]:
                        word = a + b[t:]
                        out.append(("overlap", i, j, word, len(a) - t))
                # inclusion: b properly inside a
                if i != j and len(b) < len(a):
                    for pos in range(len(a) - len(b) + 1):
                        if a[pos : pos + len(b)] == b:
                            out.append(("inclusion", i, j, a, pos))
        return out

    def check_confluence(self) -> ConfluenceReport:
        """Reduce every overlap/inclusion word both ways and compare."""
        reports = []
        for kind, i, j, word, pos_b in self._ambiguities():
            ra, rb = self.rules[i], self.rules[j]
            start = self.quiver.arrow_source[word[0]]
            path = Path(self.quiver, start, word)
            via_a = self.reduce_once(path, 0, ra)
            via_b = self.reduce_once(path, pos_b, rb)
            nf_a = self.normal_form(via_a)
            nf_b = self.normal_form(via_b)
            diff = self.normal_form(nf_a - nf_b)
            resolved = diff.is_zero()
            amb = Ambiguity(kind, i, j, path, resolved, diff)
            reports.append(amb)
            if self.trace is not None:
                self.trace(
                    f"{kind} of rules {i},{j} at word {path}: "
                    f"normal forms {nf_a!r} / {nf_b!r}; "
                    f"{'resolves' if resolved else 'S-element ' + repr(diff)}"
                )
        return ConfluenceReport(reports)

    def complete(self, length_bound, max_rounds=10_000):
        """Add oriented S-elements until confluent; in-place Knuth-Bendix."""
        for _ in range(max_rounds):
            report = self.check_confluence()
            if report.confluent:
                return report
            added = False
            for amb in report.ambiguities:
                if amb.resolved:
                    continue
                elem = self.normal_form(amb.s_element)
                if elem.is_zero():
                    continue
                lead = max(elem.terms, key=self.order_key)
                if lead.length > length_bound:
                    raise CompletionError(
                        f"completion exceeded the length bound {length_bound}"
                    )
                self.add_oriented(elem)
                added = True
                break
            if not added:
                return self.check_confluence()
        raise CompletionError("completion did not stabilize")


DEFAULT_CYCLIC_BOUND = 16


class QuotientAlgebra:
    """Finite-dimensional quotient with a normal-form path basis.

    basis[i] is an irreducible path; products are reduced lazily and cached as
    coordinate dicts {index: coeff}.  ``by_endpoints`` maps (source, target)
    to the indices of the basis paths between them, in basis order, and
    ``slot[i]`` is the position of i in its ``by_endpoints`` list.
    """

    def __init__(self, presentation, system, basis):
        self.presentation = presentation
        self.system = system
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        self.dim = len(basis)
        self.vertex_unit = {}
        self.by_endpoints = {}
        self.slot = []
        for i, p in enumerate(basis):
            if p.is_trivial():
                self.vertex_unit[p.start] = i
            parallel = self.by_endpoints.setdefault((p.source, p.target), [])
            self.slot.append(len(parallel))
            parallel.append(i)
        self.radical = [i for i, p in enumerate(basis) if not p.is_trivial()]
        self._mul_cache = {}

    @property
    def dims_by_length(self):
        out = {}
        for p in self.basis:
            out[p.length] = out.get(p.length, 0) + 1
        return out

    def source(self, i):
        return self.basis[i].source

    def target(self, i):
        return self.basis[i].target

    def parallel(self, source, target):
        """Indices of the basis paths from source to target."""
        return self.by_endpoints.get((source, target), ())

    def coords(self, elem: AlgebraElement):
        """Normal-form coordinates of a path-algebra element."""
        nf = self.system.normal_form(elem)
        out = {}
        for p, c in nf.terms.items():
            out[self.index[p]] = c
        return out

    def mul_basis(self, i, j):
        """Coordinates of basis[i] * basis[j] (j acts first)."""
        key = (i, j)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        p, q = self.basis[i], self.basis[j]
        if p.source != q.target:
            out = {}
        else:
            prod = Path(self.quiver, q.start, q.arrows + p.arrows)
            out = self.coords(AlgebraElement.from_path(self.quiver, self.field, prod))
        self._mul_cache[key] = out
        return out

    def mul_vec(self, u: dict, v: dict):
        f = self.field
        acc = {}
        for i, c in u.items():
            for j, d in v.items():
                vec_iadd(f, acc, self.mul_basis(i, j), f.mul(c, d))
        return acc

    def unit(self):
        return {i: self.field.one() for i in self.vertex_unit.values()}


def quotient_algebra(pres, length_bound=None, trace=None) -> QuotientAlgebra:
    """Complete the system, then enumerate the irreducible-path basis."""
    system = ReductionSystem.from_presentation(pres, trace=trace)
    acyclic = pres.quiver.is_acyclic()
    if length_bound is None:
        if acyclic:
            length_bound = max(pres.quiver.longest_path_length(), 2)
        else:
            length_bound = DEFAULT_CYCLIC_BOUND
    system.complete(length_bound)

    basis = []
    quiver = pres.quiver
    level = [Path(quiver, v) for v in range(quiver.n_vertices)]
    basis.extend(level)
    length = 0
    while level:
        length += 1
        if length > length_bound:
            if acyclic:
                break
            raise InfiniteDimensionalError(
                f"irreducible paths persist beyond length {length_bound}"
            )
        nxt = []
        for p in level:
            for a in quiver.arrows_from[p.target]:
                cand = Path(quiver, p.start, p.arrows + (a,))
                if system.is_irreducible(cand):
                    nxt.append(cand)
        nxt.sort(key=Path.sort_key)
        basis.extend(nxt)
        level = nxt
    return QuotientAlgebra(pres, system, basis)
