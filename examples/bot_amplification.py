#!/usr/bin/env python3
"""Bot amplification: what changes if Twitter bots are filtered out?

Section 3 of the paper discusses — and deliberately declines — removing
bot activity, arguing bots are part of the ecosystem.  Because the
synthetic world knows which accounts are bots, we can run the
counterfactual the paper could not: recompute the characterization with
bot tweets removed and measure the delta.

The world comes from the registered ``bot-amplification`` scenario
preset (:mod:`repro.scenarios`) — a bot-heavy Twitter population — so
``Study(scenario="bot-amplification")`` reproduces it anywhere; this
script only adds the counterfactual analysis on top.

Run:
    python examples/bot_amplification.py
"""

from repro import Study
from repro.analysis import characterization as chz
from repro.collection.store import Dataset
from repro.news.domains import NewsCategory
from repro.reporting import render_table


def main() -> None:
    study = Study(scenario="bot-amplification")
    data, world = study.data, study.world
    bot_ids = {uid for uid, user in world.twitter.users.items()
               if user.is_bot}
    print(f"{len(bot_ids)} of {len(world.twitter.users)} Twitter "
          "accounts are bots\n")

    with_bots = data.twitter
    without_bots: Dataset = with_bots.filter(
        lambda record: record.author_id not in bot_ids)

    alt, main = NewsCategory.ALTERNATIVE, NewsCategory.MAINSTREAM
    rows = []
    for label, dataset in (("with bots", with_bots),
                           ("bots removed", without_bots)):
        alt_posts = dataset.url_post_count(alt)
        main_posts = dataset.url_post_count(main)
        rows.append([
            label, len(dataset), alt_posts, main_posts,
            f"{100 * alt_posts / (alt_posts + main_posts):.1f}%",
            len(dataset.unique_urls(alt)),
        ])
    print(render_table(
        ["Dataset", "Tweets", "Alt posts", "Main posts", "Alt share",
         "Unique alt URLs"], rows,
        title="Twitter news sharing, with and without bot accounts"))
    print()

    print("=== Per-user alternative fraction (Figure 3) ===")
    for label, dataset in (("with bots", with_bots),
                           ("bots removed", without_bots)):
        fractions = chz.user_alternative_fraction(dataset)
        print(f"  {label}: {fractions.n_users} users, "
              f"{fractions.pct_alternative_only:.1f}% alt-only, "
              f"{fractions.pct_mainstream_only:.1f}% main-only")
    print()

    print("=== Top alternative domains, with vs without bots ===")
    before = {r.name: r.percentage
              for r in chz.top_domains(with_bots, alt, 10)}
    after = {r.name: r.percentage
             for r in chz.top_domains(without_bots, alt, 10)}
    domains = sorted(set(before) | set(after),
                     key=lambda d: -before.get(d, 0))
    print(render_table(
        ["Domain", "with bots (%)", "without (%)", "delta"],
        [[d, f"{before.get(d, 0):.2f}", f"{after.get(d, 0):.2f}",
          f"{after.get(d, 0) - before.get(d, 0):+.2f}"]
         for d in domains[:10]]))

    removed = len(with_bots) - len(without_bots)
    alt_removed = (with_bots.url_post_count(alt)
                   - without_bots.url_post_count(alt))
    if removed:
        print(f"\nbots contributed {removed} news tweets; "
              f"{100 * alt_removed / max(1, removed):.0f}% of those "
              "carried alternative URLs")


if __name__ == "__main__":
    main()
