"""The benchmark's workloads: inputs from a seed, and one pass over them.

Every workload is a closed loop with one client and no pacing: the next op
starts when the previous one returns.  A pass is a fixed list of ops; the
runner repeats passes, so every pass of one run does the same work and must
give the same outputs.  `outputs` are the canonical output lines the digest
is taken over, in an order that does not depend on the seed's shuffle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

# Highly composite exponents: their many small prime factors push the
# witness prime, and with it the image order, up.  Powers come with both
# signs.  The large ones are the slowest tenth of the ops, so
# latency_p90_ms sits on fixed words, and on a pair of equal cost (a^1260
# and a^-1260 in `cyclic`), so one slow seeded word does not move it.  The
# commutators stay small so that seeded words rarely reach that tail.
CYCLIC_POWERS = (12, 60, 360, 720, 1260, 2520)
DIAGONAL_POWERS = (24, 120, 240, 720, 1260, 2520)
COMMUTATOR_POWERS = (2, 4, 6, 12, 24, 36, 48, 60)
RANDOM_LENGTHS = tuple(8 + round(56 * k / 11) for k in range(12))  # 8..64

SMOKE_CYCLIC = (6,)
SMOKE_DIAGONAL = (6,)
SMOKE_COMMUTATOR = (2, 6)
SMOKE_LENGTHS = (8, 12)


@dataclass
class PassResult:
    outputs: list[str]
    latencies: list[float] = field(default_factory=list)  # completed ops, seconds
    verify: list[float] = field(default_factory=list)  # verify step, seconds
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs
    wall: float = 0.0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _error_record(fq, exc) -> str:
    """The record `finquot` writes to stderr for a domain or value error."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, fq.errors.FinquotError):
        record["detail"] = exc.detail()
    return fq.serialize.canonical_json(record)


def _reduced_word(rng: random.Random, length: int) -> str:
    letters: list[str] = []
    while len(letters) < length:
        base = rng.choice("ab")
        letter = base if rng.random() < 0.5 else base + "^-1"
        if letters and {letters[-1], letter} == {base, base + "^-1"}:
            continue
        letters.append(letter)
    return " ".join(letters)


class CertifyLong:
    """`finquot witness` then `finquot verify`, one word at a time.

    A pass holds 56 words of five kinds: 12 random reduced words each in
    `sanov` and in `sanov_f3`, 8 commutators a^N b^M a^-N b^-M in `sanov`,
    and 12 powers a^±N each in `cyclic` and in `diagonal`.  The exponent and length
    menus are fixed and each value is used once per pass; the seed draws the
    letters, the pairing of N with M and the order.  So the cost of a pass
    hardly depends on the seed.
    """

    name = "certify-long"

    def __init__(self, fq, seed: int, smoke: bool, out_dir: str):
        self.fq = fq
        rng = random.Random(seed)
        lengths = SMOKE_LENGTHS if smoke else RANDOM_LENGTHS
        comm = SMOKE_COMMUTATOR if smoke else COMMUTATOR_POWERS
        cyclic = SMOKE_CYCLIC if smoke else CYCLIC_POWERS
        diagonal = SMOKE_DIAGONAL if smoke else DIAGONAL_POWERS
        words = [("sanov", _reduced_word(rng, n)) for n in lengths]
        words += [("sanov_f3", _reduced_word(rng, n)) for n in lengths]
        partners = rng.sample(comm, len(comm))
        words += [("sanov", f"a^{n} b^{m} a^-{n} b^-{m}") for n, m in zip(comm, partners)]
        words += [(group, f"a^{s}{n}") for group, powers in (("cyclic", cyclic), ("diagonal", diagonal))
                  for n in powers for s in ("", "-")]
        rng.shuffle(words)
        specs = {group: fq.groups.NAMED_GROUPS[group]() for group, _ in words}
        for group, text in words:
            specs[group].word(text)  # reject a malformed input now
        self.words = words
        self.order_budget = fq.serialize.merge_budget({}).order_budget

    def _certify(self, group: str, text: str, tracer):
        """The witness path, then the verify path; returns (cert, reason, verify_s)."""
        fq = self.fq
        spec, _, fp = fq.serialize.resolve_spec(group)
        word = spec.word(text)
        if tracer is None:
            rec = fq.witness.separate(spec, word, order_budget=self.order_budget)
        else:
            # the same record, with each layer called on its own
            gamma = fq.groups.word_evaluate(spec, word)
            rec = fq.witness.separate(spec, word, gamma=gamma)
            order, exact = fq.witness.image_order(spec, rec.hom, self.order_budget)
            rec = dataclasses.replace(rec, image_order=order, image_order_exact=exact)
        with _span(tracer, "serialize.encode"):
            cert = fq.serialize.canonical_json(fq.serialize.witness_to_data(rec, fp))
        start = time.perf_counter()
        spec, _, fp = fq.serialize.resolve_spec(group)
        with _span(tracer, "serialize.decode"):
            record, recorded_fp = fq.serialize.witness_from_data(json.loads(cert))
        if recorded_fp != fp:
            reason = "spec-fingerprint-mismatch"
        else:
            _, reason = fq.witness.verify_witness(spec, record)
        return cert, reason, time.perf_counter() - start

    def run_pass(self, tracer=None) -> PassResult:
        fq = self.fq
        res = PassResult(outputs=[])
        for k, (group, text) in enumerate(self.words):
            if tracer is not None:
                tracer.op = k
            res.attempted += 1
            start = time.perf_counter()
            try:
                cert, reason, verify_s = self._certify(group, text, tracer)
            except fq.errors.IdentityWordError as exc:
                res.latencies.append(time.perf_counter() - start)
                res.outputs.append(f"{group}\t{text}\t{_error_record(fq, exc)}")
                continue
            except (fq.errors.FinquotError, ValueError, ZeroDivisionError) as exc:
                # what `finquot witness` reports with exit 1
                res.failed += 1
                res.outputs.append(f"{group}\t{text}\t{_error_record(fq, exc)}")
                if not _known_defect(group, exc):
                    res.problems.append(f"{group} {text!r}: {exc!r}")
                continue
            res.outputs.append(f"{group}\t{text}\t{cert}\t{reason}")
            if reason != "ok":
                res.failed += 1
                res.problems.append(f"{group} {text!r}: verify says {reason}")
                continue
            res.latencies.append(time.perf_counter() - start)
            res.verify.append(verify_s)
        res.completed = len(res.latencies)
        return res


def _known_defect(group: str, exc: Exception) -> bool:
    """FieldMatrix.is_identity reads a non-constant denominator as a constant,
    so every diagonal word a^-N fails with 'not a constant'."""
    return group == "diagonal" and isinstance(exc, ValueError) and str(exc) == "not a constant"


class CorpusR8:
    """The radius-8 acceptance corpus: both balls, then separate and verify
    every element (no order budget), as acceptance criterion 4 does.

    The ball is fixed; the seed only shuffles the order the elements are
    certified in.
    """

    name = "corpus-r8"
    groups = ("sanov", "sanov_f3")

    def __init__(self, fq, seed: int, smoke: bool, out_dir: str):
        self.fq = fq
        self.seed = seed
        self.radius = 3 if smoke else 8
        self.specs = {g: fq.groups.NAMED_GROUPS[g]() for g in self.groups}

    def run_pass(self, tracer=None) -> PassResult:
        fq = self.fq
        res = PassResult(outputs=[])
        if tracer is not None:
            tracer.op = "enumerate"
        balls = {g: fq.groups.ball_enumerate(self.specs[g], self.radius) for g in self.groups}
        order = [(g, k) for g in self.groups for k in range(len(balls[g]))]
        random.Random(self.seed).shuffle(order)
        reasons = {}
        for g, k in order:
            el, spec = balls[g][k], self.specs[g]
            if tracer is not None:
                tracer.op = f"{g}:{k}"
            res.attempted += 1
            start = time.perf_counter()
            try:
                rec = fq.witness.separate(spec, el.word, gamma=el.matrix)
                mid = time.perf_counter()
                ok, reason = fq.witness.verify_witness(spec, rec)
            except Exception as exc:  # noqa: BLE001 - any exception here is a wrong output
                res.failed += 1
                reasons[g, k] = _error_record(fq, exc)
                res.problems.append(f"{g} {el.word.render()!r}: {exc!r}")
                continue
            end = time.perf_counter()
            reasons[g, k] = reason
            if not (ok and rec.verified):
                res.failed += 1
                res.problems.append(f"{g} {el.word.render()!r}: verify says {reason}")
                continue
            res.latencies.append(end - start)
            res.verify.append(end - mid)
        res.completed = len(res.latencies)
        res.outputs = [
            f"{g}\t{balls[g][k].word.render()}\t{reasons[g, k]}"
            for g in self.groups
            for k in range(len(balls[g]))
        ]
        return res


class ProfileScan:
    """`finquot profile sanov --radius 4` and `finquot profile sanov_f3
    --radius 8` with default budgets, each building its scanner from scratch.

    An op is one profiled ball element; latency is per command.  The seed
    only picks the order of the two commands.  No GroupSpec is kept here:
    each command resolves its own, so no scanner is ever reused.
    """

    name = "profile-scan"

    def __init__(self, fq, seed: int, smoke: bool, out_dir: str):
        self.fq = fq
        if smoke:
            commands = [("sanov", 2, ["--max-prime", "7"]), ("sanov_f3", 3, ["--max-degree", "2"])]
        else:
            commands = [("sanov", 4, []), ("sanov_f3", 8, [])]
        for group, _, _ in commands:
            fq.serialize.resolve_spec(group)  # reject a malformed input now
        self.commands = commands
        self.order = random.Random(seed).sample(range(len(commands)), len(commands))
        self.out_dir = out_dir

    def run_pass(self, tracer=None) -> PassResult:
        fq = self.fq
        res = PassResult(outputs=[])
        csvs = {}
        for k in self.order:
            group, radius, flags = self.commands[k]
            path = os.path.join(self.out_dir, f"profile-{group}.csv")
            argv = ["profile", group, "--radius", str(radius), *flags, "--out", path]
            if tracer is not None:
                tracer.op = k
            start = time.perf_counter()
            with _span(tracer, "cli.main"):
                code = fq.cli.main(argv)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.add("cli.main", "exit_nonzero", int(code != 0))
            if code != 0:
                res.attempted += 1
                res.failed += 1
                res.problems.append(f"{' '.join(argv)}: exit {code}")
                csvs[k] = f"exit {code}\n"
                continue
            with open(path, "r", encoding="utf-8") as fh:
                csvs[k] = fh.read()
            elements = int(csvs[k].splitlines()[-1].split(",")[1])
            res.attempted += elements
            res.completed += elements
            res.latencies.append(elapsed)
        res.outputs = [
            f"{group}\t{radius}\n{csvs[k]}" for k, (group, radius, _) in enumerate(self.commands)
        ]
        return res


WORKLOADS = {w.name: w for w in (CertifyLong, CorpusR8, ProfileScan)}
