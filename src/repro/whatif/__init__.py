"""What-if analysis over the CDN world model.

The paper's introduction motivates exactly this use: "A better
understanding could enable researchers to conduct what-if analysis, and
explore how changes in video popularity distributions, or changes to the
YouTube infrastructure design can impact ISP traffic patterns, as well as
user performance."  With the generative world model in hand, those
questions become runnable experiments: define a variant of a scenario,
simulate both, and compare ISP-facing and user-facing metrics.
"""
