import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hyperkit import axioms, core
from hyperkit.axioms import (
    Tag,
    analyze,
    axiom_report,
    check_total_iff_associative_for_mosaics,
    recheck_witness,
    weak_identity_set,
)
from hyperkit.core import Hypermagma, Morphism, from_masks, permute
from hyperkit.errors import InvariantViolated, NotAMosaic
from hyperkit.matroid import adjoin_point, fano_matroid, matroid_to_mosaic, uniform_matroid
from hyperkit.univ import cofree, coequalizer, free
from hyperkit.zoo import (
    census_blocks,
    group_to_hypermagma,
    klein_four_group,
    krasner,
    symmetric_group,
)
from hyperkit.hom import enumerate_morphisms

from util import d_example, f_mosaic, mixed3, small_battery, z2


def test_tags_are_singletons_hashed_by_identity():
    """Memo keys hold tags: a tag rebuilt from its value, a pickle or a copy
    is the same member, so it finds the same entry."""
    keys = {tag: tag.value for tag in Tag}
    for tag in Tag:
        for twin in (Tag(tag.value), pickle.loads(pickle.dumps(tag)), copy.deepcopy(tag)):
            assert twin is tag and hash(twin) == hash(tag) and keys[twin] == tag.value


def test_krasner_is_canonical_hypergroup():
    rep = analyze(krasner())
    assert rep.classification == "CanonicalHypergroup"
    assert rep.total and rep.commutative and rep.associative and rep.reversible


def test_f_is_commutative_mosaic_not_total():
    rep = analyze(f_mosaic())
    assert rep.classification == "CommutativeMosaic"
    assert not rep.total and not rep.associative
    assert rep.witness("total") == (1, 1)  # 1 + 1 is empty


def test_fano_mosaic_classification():
    H = matroid_to_mosaic(adjoin_point(fano_matroid()))
    rep = analyze(H)
    assert rep.classification == "CommutativeMosaic"
    assert not rep.associative
    assert recheck_witness(H, "associative", rep.witness("associative"))


def test_group_detection():
    assert analyze(z2()).classification == "AbelianGroup"
    assert analyze(group_to_hypermagma(symmetric_group(3))).classification == "Group"
    assert analyze(group_to_hypermagma(klein_four_group())).classification == "AbelianGroup"
    # {0,1} under multiplication: a monoid that is not a group
    mul = from_masks(("0", "1"), ((1, 1), (1, 2)))
    assert analyze(mul).classification == "Monoid"


def test_weak_identity_sets():
    assert weak_identity_set(cofree(("a", "b"))) == 0b11
    assert weak_identity_set(krasner()) == 0b01
    assert weak_identity_set(free(Tag.HMAG, ("a", "b"))) == 0
    # the scalar identity forces 1+0 = {1}, so 1 and 2 fail weak identity at 0
    assert weak_identity_set(d_example()) == 0b001


def test_unique_inverses_and_reversibility_flags():
    rep = analyze(d_example())
    assert not rep.unique_inverses and not rep.reversible
    w = rep.witness("unique_inverses")
    assert w is not None and recheck_witness(d_example(), "unique_inverses", w)


def test_total_iff_associative_lemma():
    assert check_total_iff_associative_for_mosaics(f_mosaic())
    assert check_total_iff_associative_for_mosaics(krasner())
    u23 = matroid_to_mosaic(adjoin_point(uniform_matroid(2, 3)))
    # U_{2,3}'s mosaic is total yet not associative: the lemma still holds
    # because it pins hypergroup <=> associative, never total <=> associative.
    rep = analyze(u23)
    assert rep.total and not rep.associative
    assert check_total_iff_associative_for_mosaics(u23)
    with pytest.raises(NotAMosaic):
        check_total_iff_associative_for_mosaics(mixed3())


def test_associative_mosaics_are_total():
    for M in small_battery():
        rep = analyze(M)
        if rep.is_mosaic and rep.associative:
            assert rep.total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classification_invariant_under_relabeling(data):
    M = data.draw(st.sampled_from([m for m in small_battery() if m.n > 0]))
    perm = data.draw(st.permutations(range(M.n)))
    rep1 = analyze(M)
    rep2 = analyze(permute(M, list(perm)))
    assert rep1.classification == rep2.classification
    assert rep1.total == rep2.total and rep1.reversible == rep2.reversible


def test_witnesses_recheck():
    for M in small_battery():
        rep = analyze(M)
        for name, tup in rep.witnesses:
            assert recheck_witness(M, name, tup), (M.labels, name, tup)


def test_short_quotients_preserve_laws():
    Z, K = z2(), krasner()
    homs = [Morphism(Z, K, m) for m in enumerate_morphisms(Z, K, Tag.UHMAG)]
    for f in homs:
        for g in homs:
            q = coequalizer(f, g, Tag.UHMAG)
            repN = analyze(q.cod)
            assert repN.commutative and repN.associative


def test_strengthened_reversibility_equivalence():
    for M in small_battery():
        rep = analyze(M)
        if not rep.reversible:
            continue
        inv = M.inverse
        for y in range(M.n):
            for z in range(M.n):
                for x in range(M.n):
                    in_prod = bool((M.table[y][z] >> x) & 1)
                    assert in_prod == bool((M.table[x][inv[z]] >> y) & 1)
                    assert in_prod == bool((M.table[inv[y]][x] >> z) & 1)


def test_empty_carrier_flags():
    from hyperkit.core import initial

    rep = analyze(initial())
    assert not rep.total and rep.classification == "Hypermagma"
    assert rep.witness("total") == ()


def test_census_classes_scan_their_inverses_once(monkeypatch):
    """`from_masks` runs the inverse scan; `axiom_report` reads its result.
    The census checks its inverse maps in byte lanes and scans none."""
    scanned = []
    scan = core.inverse_scan

    def counted(table, e):
        scanned.append(table)
        return scan(table, e)

    monkeypatch.setattr(core, "inverse_scan", counted)
    monkeypatch.setattr(axioms, "inverse_scan", counted)
    classes = [M for _inverse, block, _lanes in census_blocks.__wrapped__(4) for M in block]
    assert scanned == [] and len(classes) == 97
    assert all(axiom_report(M).unique_inverses for M in classes) and scanned == []
    assert [core.from_masks(M.labels, M.table) for M in classes] == classes
    assert [M.table for M in classes] == scanned
    # a table without unique inverses is scanned again, for its witness
    rep = axiom_report(mixed3())
    assert len(scanned) == 99 and rep.witness("unique_inverses") == ()


def test_report_refuses_unique_inverses_without_an_inverse_map():
    K = krasner()
    bare = Hypermagma(K.labels, K.table, K.identity, None)
    with pytest.raises(InvariantViolated, match="unique inverses but no inverse map"):
        axiom_report(bare)
