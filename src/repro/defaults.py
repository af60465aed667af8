"""Names and defaults the command line shows before it loads a command.

The parser offers the paper's dataset names as choices and prints the
monitor's defaults in its help, and every command checks ``--scale``
against :data:`MIN_SCALE` before it loads the world model.  They live here, apart from the world
model and the monitor that also use them, so building the parser imports
neither.
"""

#: Dataset names of Table I, in the paper's order.
DATASET_NAMES = ("US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2")

#: The least ``--scale`` at which every Table I dataset expects a request
#: a day: one over EU1-FTTH's 9,900 a day at paper scale.  Below it a week
#: comes out empty, or nearly, and no analysis of it works.
MIN_SCALE = 1 / 9900.0

#: Default ``repro monitor`` epoch length: one simulated day.
DEFAULT_EPOCH_S = 86400.0

#: Default monitored horizon, chosen so the canned
#: :func:`~repro.monitor.evolution.standard_evolution` schedule fits.
DEFAULT_EPOCHS = 8

#: Default alarm threshold on the dissimilarity distance: alarm when at
#: least half the pattern moved.  At the scales the tests and CI run,
#: between-epoch sampling noise stays below ~0.35 even in the noisiest
#: (proportional-policy, half-day-epoch) regime, while scheduled CDN
#: changes land at 0.85+.  See docs/faq.md for tuning guidance.
DEFAULT_THRESHOLD = 0.5
