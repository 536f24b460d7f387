"""How raw captions become candidate category names.

Walks one noisy caption set through the three pipeline stages and shows
what each stage removes or merges. The stages stack: each value of
``FilterConfig.stages`` runs one stage more than the value before it.

Run: python3 demos/03_caption_to_candidates.py
"""

from vfclass import (
    CaptionRecord,
    FilterConfig,
    LexiconTagger,
    extract_candidates,
    pos_tag,
    remove_noise,
    standardize,
)
from vfclass.candidates import STAGES

captions = [
    CaptionRecord("c1", "Cassowary walking at http://img.example.com/Cassowary_3.jpg"),
    CaptionRecord("c2", "cassowary photo 4K wallpaper <PERSON> 2021"),
    CaptionRecord("c3", "big-bird cassowary IMG_2024.png stock image"),
    CaptionRecord("c4", "the Cassowary, a large flightless bird!"),
    CaptionRecord("c5", "cassowary_in_rainforest thumbnail pic.jpg"),
]
tagger = LexiconTagger()

print("== stage 1: noise removal ==")
for rec in captions:
    tokens = remove_noise(rec.text)
    print(f"{rec.id}: {rec.text!r}")
    print(f"    -> {tokens}")

print("\n== stage 2: standardization (lowercase + singular) ==")
samples = ["Cassowary", "berries", "boxes", "wolves", "sheep", "cars"]
print(f"{samples}\n    -> {standardize(samples)}")

print("\n== stage 3: part-of-speech + occurrence filtering ==")
words = ["cassowary", "bird", "large", "walking", "the", "they", "zzxyq"]
for word in words:
    print(f"pos({word!r}) = {pos_tag(word, tagger)}")

print("\n== the four pipeline configurations ==")
for stages in STAGES:
    config = FilterConfig(stages=stages)
    result = extract_candidates(captions, tagger, config)
    preview = dict(sorted(result.entries.items(), key=lambda kv: -kv[1])[:6])
    print(f"{stages:12s} {len(result.entries):3d} candidates, top: {preview}")

print("\nfully filtered candidate set:")
final = extract_candidates(captions, tagger)
print(f"  {final.entries}  (from captions {final.provenance})")
