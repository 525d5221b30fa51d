"""Ablation: bot removal — the counterfactual the paper declined.

Section 3 argues bot activity is part of the ecosystem and keeps it.
Here we detect bot-like accounts with the BotOrNot-style scorer, filter
their tweets, and measure what changes: the alternative-news share on
Twitter and the detection quality against the world's ground truth.
"""

from repro.analysis.bots import detect_bots, evaluate_detection
from repro.news.domains import NewsCategory
from repro.reporting import render_table

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


def test_ablation_bots(benchmark, bench_study, bench_data, save_result):
    detection = benchmark(detect_bots, bench_data.twitter, 0.4)
    filtered = detection.filter_dataset(bench_data.twitter)

    world = bench_study.world
    truth = {uid for uid, u in world.twitter.users.items() if u.is_bot}
    authors = {r.author_id for r in bench_data.twitter
               if r.author_id is not None}
    quality = evaluate_detection(detection, truth, authors)

    def alt_share(dataset):
        alt = dataset.url_post_count(ALT)
        main = dataset.url_post_count(MAIN)
        return 100.0 * alt / (alt + main) if alt + main else 0.0

    rows = [
        ["with bots", len(bench_data.twitter),
         f"{alt_share(bench_data.twitter):.1f}%"],
        ["bots filtered", len(filtered), f"{alt_share(filtered):.1f}%"],
    ]
    text = (render_table(
        ["Dataset", "Tweets", "Alternative share"], rows,
        title="Ablation — bot removal on Twitter")
        + f"\ndetected {len(detection.detected)} accounts; "
        + f"precision {quality.precision:.2f} recall {quality.recall:.2f} "
        + f"f1 {quality.f1:.2f} "
        + f"(base rate {len(truth & authors) / max(1, len(authors)):.2f})")
    save_result("ablation_bots.txt", text)

    # filtering removes content and lowers the alternative share
    assert len(filtered) < len(bench_data.twitter)
    assert alt_share(filtered) <= alt_share(bench_data.twitter)
    # detection is far better than chance on precision; recall is
    # inherently low because most synthetic bots post too rarely to
    # distinguish — mirroring the paper's skepticism (Section 3) that
    # bot classification is reliable enough to subtract.
    base_rate = len(truth & authors) / max(1, len(authors))
    assert detection.detected, "no accounts flagged at threshold 0.4"
    assert quality.precision > 2 * base_rate
