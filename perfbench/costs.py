"""Paper-style cost table: predicted work per request next to measured time.

The paper prices each method by its operation count (Table 7,
``I × cost(GᵀGx) + trp × cost(Gx)``; see ``repro.updating.cost_model``).
The same accounting for one served request:

* cosine scan over ``n`` documents at ``k`` factors: ``2·n·k`` flops,
  reading ``n·k·8`` bytes of document coordinates;
* Eq. 6 projection of a query: ``m·k`` (one pass over ``U_k``);
* top-z selection: one pass over the ``n`` scores (``n·8`` bytes);
* ANN probe: ``2·C·k`` to rank ``C`` centroids, then the exact rerank of
  the ``c`` candidates, ``2·c·k`` flops over ``c·k·8`` bytes;
* fold-in of ``p`` documents (Table 7): ``2·m·k·p``.

Measured times come from a traced run (``--trace 1``); an untraced run
prints the prediction alone.
"""

from __future__ import annotations

import math

from workloads import STORES, WORKLOADS


def rows(name: str) -> list[tuple[str, float, float, str]]:
    """(layer, flops, bytes, per-layer metric) predicted per request."""
    wl = WORKLOADS[name]
    spec = STORES[wl.stores[0]]
    n, m, k = spec.n_docs, spec.n_terms, spec.k
    out = [("Eq. 6 projection", m * k, m * k * 8, "core.query.project_ms")]
    if wl.probes is None:
        out += [
            ("cosine scan", 2 * n * k, n * k * 8, "serving.kernel.score_ms"),
            ("top-z select", n, n * 8, "serving.topk.select_ms"),
        ]
    else:
        cells = max(1, int(round(math.sqrt(n))))
        cand = n * wl.probes / cells
        out += [
            ("ANN probe + rerank", 2 * cells * k + 2 * cand * k,
             (cells + cand) * k * 8, "serving.ann.select_ms"),
        ]
    if wl.add_rate:
        from repro.updating.cost_model import fold_documents_flops

        per_search = wl.add_rate / wl.nominal_rate
        out.append((
            f"fold-in (p={wl.add_batch}, per search)",
            fold_documents_flops(m, k, wl.add_batch) * per_search,
            m * k * 8 * per_search, "updating.fold_in_ms",
        ))
    return out


def table(name: str, measured: dict | None = None) -> str:
    """The cost table as text, with measured per-layer times when given."""
    lines = [
        f"  cost model ({name})       flops/req    bytes/req   measured ms/call",
    ]
    for layer, flops, nbytes, metric in rows(name):
        got = "-" if measured is None else f"{measured.get(metric, 0.0):.4f}"
        lines.append(f"  {layer:<26} {flops:>10.3g} {nbytes:>12.3g}   {got} ({metric})")
    return "\n".join(lines)
