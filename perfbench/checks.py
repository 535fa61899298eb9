"""Output checks: every answer the benchmark times is also verified.

A failed check is counted as a failed operation (it enters
``failed_share``) and makes the benchmark exit non-zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np


class CheckLog:
    """Named check outcomes of one run."""

    def __init__(self):
        self.results: List[tuple] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def lines(self) -> List[str]:
        return [f"check {'ok  ' if ok else 'FAIL'} {name}"
                + (f"  ({detail})" if detail else "")
                for name, ok, detail in self.results]


def eager_parity(log: CheckLog, model, images: np.ndarray, predictor) -> None:
    """The float32 runtime agrees with the eager autograd path."""
    from repro.runtime import compare_with_eager

    report = compare_with_eager(model, images, predictor=predictor)
    log.record("float32 runtime matches eager (compare_with_eager)",
               report.ok, report.summary())


def int8_golden(log: CheckLog, model, predictor) -> None:
    """Int8 features, similarities and labels equal the committed golden
    fixture bit for bit (``model`` must still hold only the fixture's
    classes)."""
    import int8_fixtures

    golden = int8_fixtures.load_golden()
    theta_a = predictor.extract_backbone_features(golden["images"])
    theta_p = predictor.project(theta_a)
    sims, ids = predictor.similarities_from_features(theta_p)
    labels = predictor.predict_features(theta_p)
    produced = {"theta_a": theta_a, "theta_p": theta_p, "sims": sims,
                "ids": ids, "labels": labels}
    differing = [key for key, value in produced.items()
                 if not np.array_equal(value, golden[key])]
    log.record("int8 features match tests/fixtures/int8_golden.npz",
               not differing, f"differing: {differing}" if differing else "")


def answers_match(expected: np.ndarray, produced: np.ndarray) -> int:
    """Number of wrong labels."""
    produced = np.asarray(produced)
    if produced.shape != expected.shape:
        return int(expected.size)
    return int(np.count_nonzero(produced != expected))


def batch_size_labels(predictor, theta_a: np.ndarray, queries: List[int],
                      max_batch: int) -> Dict[int, set]:
    """Labels ``predictor`` gives each of ``queries`` in a batch of every
    size from 1 to ``max_batch``, at the memory's current version.

    The server answers a coalesced batch of 1 to ``max_batch`` submits in
    one pass.  The row results of the float FCR projection and prototype
    GEMMs depend on the batch's row count (BLAS chooses its kernel by
    shape), though not on the other rows, so the single-process answer to a
    served query is the :class:`~repro.runtime.BatchedPredictor` label of
    that query in a batch of the size the server formed.  ``theta_a`` holds
    the backbone features of every query (the backbone is batch-stable).
    """
    labels = {query: set() for query in queries}
    for size in range(1, max_batch + 1):
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            rows = chunk + [chunk[-1]] * (size - len(chunk))
            got = predictor.predict_features(predictor.project(theta_a[rows]))
            for query, label in zip(chunk, got):
                labels[query].add(int(label))
    return labels


def _memory_versions(model, journal_path) -> Iterable[int]:
    """Yield the memory version of ``model`` as it stands and after each
    record of the learn journal at ``journal_path`` (if any) is applied."""
    from repro.serve.journal import read_journal

    yield model.memory.version
    if journal_path is not None:
        for record in read_journal(journal_path):
            model.memory.update_class(record.class_id, record.features)
            yield model.memory.version


def _in_window(reference: Dict[int, Dict[int, set]], index: int, label,
               low: int, high: int) -> bool:
    return any(int(label) in reference.get(version, {}).get(index, ())
               for version in range(low, high + 1))


def served_answers_wrong(answers: Iterable[tuple], build, theta_a: np.ndarray,
                         max_batch: int, journal_path=None) -> Tuple[int, int]:
    """Count served answers that no single-process answer matches.

    ``answers`` holds ``(query index, label, low version, high version)``.
    An answer is right when it equals the
    :class:`~repro.runtime.BatchedPredictor` label of its query at a memory
    version in ``[low, high]`` (live while the request was in flight), in a
    batch of some size from 1 to ``max_batch`` (see
    :func:`batch_size_labels`).  ``build()`` makes a model holding the
    memory the journal at ``journal_path`` was written against.

    Answers are first checked against the whole-session labels (one GEMM of
    every query); only those that differ are evaluated at every batch size.
    Returns ``(wrong, right only at another batch size)``.
    """
    from repro.runtime import BatchedPredictor

    answers = list(answers)
    wanted = {version for *_, low, high in answers
              for version in range(low, high + 1)}
    model = build()
    predictor = BatchedPredictor(model)
    theta_p = predictor.project(theta_a)
    session = {}
    for version in _memory_versions(model, journal_path):
        if version in wanted:
            session[version] = {index: {int(label)} for index, label in
                                enumerate(predictor.predict_features(theta_p))}
    pending = [answer for answer in answers
               if not _in_window(session, *answer)]
    if not pending:
        return 0, 0
    needed: Dict[int, set] = {}
    for index, _, low, high in pending:
        for version in range(low, high + 1):
            needed.setdefault(version, set()).add(index)
    model = build()
    predictor = BatchedPredictor(model)
    by_size = {}
    for version in _memory_versions(model, journal_path):
        if version in needed:
            by_size[version] = batch_size_labels(
                predictor, theta_a, sorted(needed[version]), max_batch)
    wrong = sum(1 for answer in pending if not _in_window(by_size, *answer))
    return wrong, len(pending) - wrong


def journal_replay(log: CheckLog, fresh_model, served_memory, journal_path
                   ) -> None:
    """Replaying the journal into a fresh memory reproduces the served
    memory exactly (prototypes, counts and version)."""
    from repro.serve.journal import replay

    memory = fresh_model.memory
    replay(journal_path, memory)
    same = (memory.version == served_memory.version
            and memory.class_ids == served_memory.class_ids)
    if same:
        for class_id in memory.class_ids:
            if not np.array_equal(memory.prototype(class_id),
                                  served_memory.prototype(class_id)):
                same = False
                break
    log.record("journal replay reproduces the served memory", same,
               f"v{memory.version} vs v{served_memory.version}, "
               f"{memory.num_classes} classes")
