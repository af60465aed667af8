"""Client-side workload: who asks for what, when.

Produces the request streams that drive the simulated week at each vantage
point: diurnal day/night arrival patterns (visible in Figure 11's bottom
panel), heavy-tailed per-client activity, Zipf video popularity with
"video of the day" spikes, and the user interactions (resolution switches,
seeks) that create the loosely-spaced extra flows behind Figure 5's
session-gap sensitivity.
"""
