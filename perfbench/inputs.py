"""Seeded inputs for every workload: the seed is the only workload input.

Everything a run feeds the program — keys, record bytes, filler, site
content and visit sequences — is drawn from ``numpy.random.default_rng``
streams derived from ``--seed`` here. The party processes receive only the
databases built from these inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

import numpy as np

from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.publisher import DEFAULT_RENDER, Publisher
from repro.costmodel.datasets import C4
from repro.pir.database import BlobDatabase
from repro.pir.keyword import HEADER_BYTES, KeywordIndex
from repro.workloads import BrowsingProfile, SyntheticCorpus, ZipfPopularity

#: Geometry per workload and scale. ``toy`` keeps every code path but
#: shrinks the databases so the benchmark's own tests run in seconds.
GET_GEOMETRY = {
    ("get-4k", "full"): dict(domain_bits=14, blob_size=4096, prefix_bits=0),
    ("get-4k", "toy"): dict(domain_bits=8, blob_size=4096, prefix_bits=0),
    ("get-64k-shard8", "full"): dict(domain_bits=10, blob_size=65536,
                                     prefix_bits=3),
    ("get-64k-shard8", "toy"): dict(domain_bits=6, blob_size=65536,
                                    prefix_bits=3),
}

#: Universe sizes per scale. Blob sizes, probes (2, cuckoo placement)
#: and the fetch budget are the ``ContentUniverse`` defaults.
BROWSE_GEOMETRY = {
    "full": dict(code_domain_bits=10, data_domain_bits=12,
                 n_sites=160, pages_per_site=6),
    "toy": dict(code_domain_bits=6, data_domain_bits=8,
                n_sites=12, pages_per_site=3),
}

FETCH_BUDGET = 5
#: Largest denominator the cold-domain share is rounded to.
MAX_DENOMINATOR = 8
#: GET queries drawn; far more than a run completes.
QUERIES = 20000

@dataclass
class ServedDatabase:
    """One database a party serves, with the public hello parameters."""

    kind: str
    database: BlobDatabase
    salt: bytes
    probes: int
    prefix_bits: int = 0


@dataclass
class GetInputs:
    """A keyword store plus the query sequence of a ``get-*`` workload."""

    served: List[ServedDatabase]
    records: Dict[str, bytes]
    queries: List[str]


@dataclass
class BrowseInputs:
    """A published universe plus one visit sequence per user."""

    served: List[ServedDatabase]
    expected_text: Dict[str, str]
    visits: List[List[str]]
    fetch_budget: int = FETCH_BUDGET
    n_pages: int = 0
    n_sites: int = 0
    cold_share: float = 0.0


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode("ascii")])


def build_get_inputs(workload: str, seed: int, scale: str) -> GetInputs:
    """Insert one record per free hashed slot; draw uniform queries.

    Plain hashed placement (one probe per GET): a key whose slot is
    taken is skipped, as a publisher would pick another name.
    """
    geometry = GET_GEOMETRY[(workload, scale)]
    rng = _rng(seed, workload)
    database = BlobDatabase(geometry["domain_bits"], geometry["blob_size"])
    salt = rng.bytes(16)
    index = KeywordIndex(database, probes=1, salt=salt)
    payload_bytes = geometry["blob_size"] - HEADER_BYTES
    records: Dict[str, bytes] = {}
    for i in range(database.n_slots):
        key = f"obj{i:06d}.s{seed}.example/blob"
        if database.is_occupied(index.candidate_slots(key)[0]):
            continue
        payload = rng.bytes(payload_bytes)
        index.put(key, payload)
        records[key] = payload
    keys = sorted(records)
    picks = rng.integers(0, len(keys), size=QUERIES)
    return GetInputs(
        served=[ServedDatabase("data", database, salt, 1,
                               geometry["prefix_bits"])],
        records=records,
        queries=[keys[i] for i in picks],
    )


def cold_share(n_sites: int) -> Fraction:
    """Share of page views that go to a domain not visited before.

    Taken from the paper's usage profile (§4, ``BrowsingProfile``: 50
    page views a day, zipf site popularity): the expected number of
    distinct sites a user visits in a day divided by the page views in
    that day. With a Poisson day of ``lam`` views, site ``i`` is visited
    at least once with probability ``1 - exp(-lam * p_i)``. The share is
    rounded to a fraction with a small denominator.
    """
    profile = BrowsingProfile()
    probabilities = ZipfPopularity(
        n_sites, profile.site_zipf_exponent).probabilities
    distinct = float(np.sum(
        1.0 - np.exp(-profile.pages_per_day * probabilities)))
    return Fraction(distinct / profile.pages_per_day).limit_denominator(
        MAX_DENOMINATOR)


def _site_sequence(probabilities: np.ndarray, share: Fraction,
                   rng: np.random.Generator) -> List[int]:
    """Draw site visits of which ``share`` go to sites not visited yet
    and the rest revisit visited ones; both picks are weighted by zipf
    popularity.

    Visit ``i`` is a new site iff ``ceil((i + 1) * share)`` exceeds
    ``ceil(i * share)``, so the first visit is new and after every ``n``
    visits the count of new sites is ``ceil(n * share)``. That keeps the
    bytes a page view moves the same across seeds and window lengths;
    independent draws make the share, and so the bytes per page, vary by
    several percent between seeds.
    """
    unvisited = list(range(len(probabilities)))
    visited: List[int] = []
    sequence: List[int] = []
    i = 0
    while True:
        fresh = math.ceil((i + 1) * share) > math.ceil(i * share)
        if fresh and not unvisited:
            return sequence
        pool = unvisited if fresh else visited
        weights = probabilities[pool]
        pick = pool[int(rng.choice(len(pool), p=weights / weights.sum()))]
        if fresh:
            unvisited.remove(pick)
            visited.append(pick)
        sequence.append(pick)
        i += 1


def build_browse_inputs(seed: int, scale: str, users: int) -> BrowseInputs:
    """Publish a synthetic corpus with C4's page-size statistics and draw
    zipf site visits per user.

    Every site enables Merkle integrity, so each data GET is verified
    against the root in its code blob.
    """
    geometry = BROWSE_GEOMETRY[scale]
    rng = _rng(seed, "browse")
    corpus = SyntheticCorpus.for_dataset(
        C4, geometry["n_sites"], geometry["pages_per_site"],
        seed=int(rng.integers(2**32)))
    cdn = Cdn("perfbench", modes=["pir2"])
    universe = cdn.create_universe(
        "main",
        code_domain_bits=geometry["code_domain_bits"],
        data_domain_bits=geometry["data_domain_bits"],
        fetch_budget=FETCH_BUDGET,
        salt=rng.bytes(16),
    )
    publisher = Publisher("perfbench")
    expected_text: Dict[str, str] = {}
    for s in range(corpus.n_sites):
        site = publisher.site(corpus.domain(s))
        site.enable_integrity()
        for page in corpus.site_pages(s):
            site.add_page(page.path[len(corpus.domain(s)):], page.content)
            expected_text[page.path] = DEFAULT_RENDER.replace(
                "{data0.title}", page.title).replace("{data0.body}",
                                                     page.body)
    publisher.push(cdn, "main")

    # Popularity ranks follow a seeded permutation of the sites.
    order = rng.permutation(corpus.n_sites)
    probabilities = ZipfPopularity(
        corpus.n_sites, BrowsingProfile().site_zipf_exponent).probabilities
    share = cold_share(corpus.n_sites)
    visits = []
    for _ in range(users):
        sequence = []
        for rank in _site_sequence(probabilities, share, rng):
            page = rng.integers(corpus.pages_per_site)
            sequence.append(corpus.page(int(order[rank]), int(page)).path)
        visits.append(sequence)
    served = [
        ServedDatabase("code", universe.code_db, universe.code_salt,
                       universe.probes),
        ServedDatabase("data", universe.data_db, universe.data_salt,
                       universe.probes),
    ]
    return BrowseInputs(served=served, expected_text=expected_text,
                        visits=visits, n_pages=corpus.n_pages,
                        n_sites=corpus.n_sites, cold_share=float(share))


def database_bytes(served: List[ServedDatabase]) -> int:
    """Total packed storage the parties hold (before sharding copies)."""
    return sum(s.database.memory_bytes() for s in served)


__all__ = ["GET_GEOMETRY", "BROWSE_GEOMETRY", "FETCH_BUDGET",
           "cold_share", "ServedDatabase", "GetInputs", "BrowseInputs",
           "build_get_inputs", "build_browse_inputs", "database_bytes"]

