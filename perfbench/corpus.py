"""Seeded inputs: durable stores, topic texts and query pools.

Two kinds of store back the workloads:

* **factor stores** (``scan_large``, ``cluster_ann``, ``tenants_lru``):
  the truncated SVD is *synthesised* rather than computed, so a
  200k-document index at k=64 builds in seconds.  Documents and terms are
  tied to topics: a document's comparison-space row ``V_j Σ`` is its
  topic's centroid plus noise, and a term's row of ``U`` is its topic's
  centroid plus noise, so a query made of one topic's terms (Eq. 6:
  ``qᵀ U Σ⁻¹``) lands near that topic's documents and the ranking is
  meaningful.  The factors go through ``LSIIndexManager.restore`` and
  ``DurableIndexStore.initialize``, so the checkpoint on disk (including
  its trained ANN quantizer) is written by the program itself.
* **text stores** (``hot_small_rw``): synthetic topic-model documents
  that the program fits itself (``manager_from_texts``), so ``/add``
  exercises the real parse → fold-in → §4.3 consolidation path.

Everything is a pure function of its seed.
"""

from __future__ import annotations

import pathlib

import numpy as np

_LETTERS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"


def word(i: int) -> str:
    """A letters-only, tokenizer-stable word for term number ``i``."""
    out = []
    i += 1
    while i:
        i, r = divmod(i, len(_LETTERS) * len(_VOWELS))
        out.append(_LETTERS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(out) + "n"


def vocabulary(n_terms: int) -> list[str]:
    """``n_terms`` distinct words; term ``t`` belongs to topic ``t % T``."""
    return [word(i) for i in range(n_terms)]


def _unit(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def factor_manager(
    *, n_docs: int, n_terms: int, k: int, topics: int, seed: int
):
    """A restored index manager over synthetic, topic-clustered factors."""
    from repro.core.model import LSIModel
    from repro.sparse.csc import CSCMatrix
    from repro.text.tdm import TermDocumentMatrix
    from repro.text.vocabulary import Vocabulary
    from repro.updating.manager import LSIIndexManager
    from repro.weighting.schemes import WeightingScheme

    rng = np.random.default_rng(seed)
    centroids = _unit(rng.standard_normal((topics, k)))
    s = np.sort(rng.uniform(20.0, 200.0, size=k))[::-1].copy()
    doc_topic = rng.integers(0, topics, size=n_docs)
    coords = centroids[doc_topic] + 0.35 * rng.standard_normal((n_docs, k)) / np.sqrt(k)
    V = coords / s
    term_topic = np.arange(n_terms) % topics
    U = centroids[term_topic] + 0.5 * rng.standard_normal((n_terms, k)) / np.sqrt(k)
    U = U / np.sqrt(n_terms / topics)
    gw = rng.uniform(0.5, 1.0, size=n_terms)
    vocab = Vocabulary(vocabulary(n_terms)).freeze()
    doc_ids = [f"d{j}" for j in range(n_docs)]
    scheme = WeightingScheme("log", "entropy")
    model = LSIModel(
        U=U, s=s, V=V, vocabulary=vocab, doc_ids=doc_ids, scheme=scheme,
        global_weights=gw, provenance="svd",
    )
    # A raw-count matrix consistent with the topics (two of the topic's
    # terms per document); only a consolidation would read it.
    per_topic = n_terms // topics
    first = rng.integers(0, per_topic, size=n_docs)
    second = (first + rng.integers(1, per_topic, size=n_docs)) % per_topic
    rows = np.sort(doc_topic[:, None] + topics * np.stack([first, second], 1), axis=1)
    tdm = TermDocumentMatrix(
        CSCMatrix(
            (n_terms, n_docs),
            np.arange(0, 2 * n_docs + 1, 2, dtype=np.int64),
            rows.ravel().astype(np.int64),
            np.ones(2 * n_docs),
        ),
        vocab,
        list(doc_ids),
    )
    return LSIIndexManager.restore(
        tdm=tdm, k=k, model=model, base_model=model, scheme=scheme,
    )


def build_factor_store(
    data_dir: pathlib.Path, *, n_docs: int, n_terms: int, k: int,
    topics: int, seed: int,
) -> None:
    """Write a fresh durable store (checkpoint 1 + trained quantizer)."""
    from repro.store import DurableIndexStore

    manager = factor_manager(
        n_docs=n_docs, n_terms=n_terms, k=k, topics=topics, seed=seed
    )
    store = DurableIndexStore.initialize(pathlib.Path(data_dir), manager)
    store.close(flush=False)


def topic_texts(
    n_docs: int, *, n_terms: int, topics: int, length: int, seed: int
) -> list[str]:
    """Topic-model documents: each word from the doc's topic w.p. 0.8."""
    rng = np.random.default_rng(seed)
    vocab = vocabulary(n_terms)
    per_topic = n_terms // topics
    texts = []
    for _ in range(n_docs):
        topic = int(rng.integers(topics))
        own = rng.random(length) < 0.8
        idx = np.where(
            own,
            topic + topics * rng.integers(0, per_topic, size=length),
            rng.integers(0, n_terms, size=length),
        )
        texts.append(" ".join(vocab[i] for i in idx))
    return texts


def build_text_store(
    data_dir: pathlib.Path, texts: list[str], *, k: int, seed: int
) -> None:
    """Fit the program's own index over ``texts`` and seed a store."""
    from repro.server.state import manager_from_texts
    from repro.store import DurableIndexStore

    manager = manager_from_texts(
        texts, [f"h{j}" for j in range(len(texts))], k=k, seed=seed
    )
    store = DurableIndexStore.initialize(pathlib.Path(data_dir), manager)
    store.close(flush=False)


def query_pool(
    n: int, *, n_terms: int, topics: int, terms: int, seed: int
) -> list[str]:
    """``n`` distinct-ish ``terms``-word queries, each from one topic."""
    rng = np.random.default_rng(seed)
    vocab = vocabulary(n_terms)
    per_topic = n_terms // topics
    out = []
    for _ in range(n):
        topic = int(rng.integers(topics))
        idx = topic + topics * rng.choice(per_topic, size=terms, replace=False)
        out.append(" ".join(vocab[i] for i in idx))
    return out
