"""End-to-end oracle for the question every report rests on: is a
certificate trusted in store S at instant t?

The answer of `analyze_corpus` (an instant inside one of the certificate's
trust intervals for S) is compared with the path builder of the installed
`cryptography` (`cryptography.x509.verification`), which shares no code
with xsign: it parses the DER itself, builds its own chains from the whole
corpus and validates them by its own reading of RFC 5280 section 6.1,
signatures included. Its trust anchors at t are the roots of the store's
latest snapshot taken by t. xsign runs in cryptographic mode, under an
empty revocation view, with the distrust rules removed, since the verifier
knows neither.

The instants are one hour inside the validity bounds of the certificate
and of every certificate above it by issuer name, and one hour after each
of the store's snapshot dates.

One difference is by design: xsign forbids a repeated key (SPKI) within a
path, which is how it keeps mutual cross-signs from cycling, while the
verifier accepts a chain through a second certificate with a key already
in it. Such chains are counted per scenario in `KEY_REUSE`, not skipped.
"""

from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.serialization import (Encoding,
                                                          PublicFormat)
from cryptography.x509.verification import (Criticality, ExtensionPolicy,
                                            PolicyBuilder, Store,
                                            VerificationError)

from xsign.analysis import AnalysisOptions, analyze_corpus
from xsign.corpus import SCENARIOS, ScenarioSpec, generate
from xsign.revocation import RevocationView

HOUR = timedelta(hours=1)
END_ENTITY = ExtensionPolicy.permit_all()
CA = ExtensionPolicy.permit_all().require_present(
    x509.BasicConstraints, Criticality.AGNOSTIC, None)

# The checks where only a chain that repeats a key makes the certificate
# trusted, by scenario (seed 1; `random` with n=150).
KEY_REUSE = {"diginotar": 4, "backdating": 2}


def _repeats_a_key(chain: list[x509.Certificate]) -> bool:
    keys = [c.public_key().public_bytes(Encoding.DER,
                                        PublicFormat.SubjectPublicKeyInfo)
            for c in chain]
    return len(set(keys)) < len(keys)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_trust_matches_an_independent_path_builder(scenario_id):
    params = {"n": 150} if scenario_id == "random" else {}
    bundle = generate(ScenarioSpec(scenario_id, seed=1, mode="cryptographic",
                                   params=params))
    stores = [replace(store, distrust_rules=[]) for store in bundle.stores]
    result = analyze_corpus(bundle.records, stores, [],
                            [RevocationView("none", frozenset())],
                            options=AnalysisOptions(mode="cryptographic"))
    trusted = {row.fingerprint: row for row in result.rows}
    certs = {r.fingerprint: x509.load_der_x509_certificate(r.raw)
             for r in bundle.records}
    pool = list(certs.values())
    by_subject: dict[x509.Name, list[x509.Certificate]] = {}
    for cert in pool:
        by_subject.setdefault(cert.subject, []).append(cert)

    def lineage(cert: x509.Certificate) -> list[x509.Certificate]:
        """`cert` and every certificate above it by issuer name."""
        seen, todo = {}, [cert]
        while todo:
            cert = todo.pop()
            if cert not in seen:
                seen[cert] = None
                todo += by_subject.get(cert.issuer, [])
        return list(seen)

    verifiers = {}

    def verifier(store, at):
        """The verifier at `at` over the roots of `store`'s latest
        snapshot taken by then, or None when there is none."""
        if (store.store_id, at) not in verifiers:
            taken = [s for s in store.snapshots if s.effective_date <= at]
            roots = [certs[fp] for fp in taken[-1].roots] if taken else []
            verifiers[store.store_id, at] = (
                PolicyBuilder().store(Store(roots)).time(at)
                .max_chain_depth(12)
                .extension_policies(ca_policy=CA, ee_policy=END_ENTITY)
                .build_client_verifier()) if roots else None
        return verifiers[store.store_id, at]

    outcomes = Counter()
    for fp, cert in certs.items():
        bounds = {at for member in lineage(cert)
                  for at in (member.not_valid_before_utc + HOUR,
                             member.not_valid_after_utc - HOUR)}
        for store in stores:
            for at in sorted(bounds | {s.effective_date + HOUR
                                       for s in store.snapshots}):
                verify = verifier(store, at)
                try:
                    chain = verify.verify(cert, pool).chain if verify else []
                except VerificationError:
                    chain = []
                ours = any(interval.start <= at < interval.end
                           for interval in trusted[fp].stores[store.store_id])
                if bool(chain) == ours:
                    outcomes["agree"] += 1
                else:
                    assert chain and _repeats_a_key(chain), \
                        (fp, store.store_id, at, ours)
                    outcomes["key_reuse"] += 1
    assert outcomes["agree"] > 0
    assert outcomes["key_reuse"] == KEY_REUSE.get(scenario_id, 0)
