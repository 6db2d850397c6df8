"""Corpus rows: fingerprints, deterministic splits, and text ablations.

Corpus rows carry a SHA-256 fingerprint and a whitespace word count so a
withheld text can be verified against its published metadata. Splits and
samples are pure functions of (ids, seed).
"""

from grantgeo import GrantAbstract, SplitConfig, fingerprint, redact_patentee, sample_fixed, split_corpus, word_count

SAMPLE = (
    "WILLIAM WILLIAMS, 400 acs., on 8. side of the main Black Water Swamp; "
    "by run of Holloway Sw; 24 Apr. 1703, p. 519. Trans. of 8 pers: "
    "Note: 8 tights paid for to Wm, Byrd, Esqr., Auditor."
)

row = GrantAbstract.from_text("grant_04", SAMPLE)
print(f"row_id      : {row.row_id}")
print(f"word count  : {row.word_count}")
print(f"fingerprint : {row.fingerprint}")
assert row.fingerprint == fingerprint(SAMPLE)
assert row.word_count == word_count(SAMPLE)

# A large corpus splits 20/80 deterministically under a fixed seed.
corpus = [GrantAbstract.from_text(f"row_{i:05d}", f"abstract number {i}") for i in range(5471)]
dev, test = split_corpus(corpus, SplitConfig(seed=42, dev_fraction=0.20))
print(f"\nsplit sizes : dev={len(dev)}, test={len(test)}")

# Fixed-size working sets come from seeded sampling without replacement.
dev_1 = sample_fixed(dev, 20, seed=1)
dev_2 = sample_fixed(dev, 20, seed=2)
print(f"{dev_1.name:<12}: {dev_1.members[:3]}")
print(f"{dev_2.name:<12}: {dev_2.members[:3]}")
print(f"overlap     : {len(set(dev_1.members) & set(dev_2.members))} of 20")

# The memorization ablation masks the patentee's name.
print(f"\nredacted    : {redact_patentee(SAMPLE)[:60]}...")
