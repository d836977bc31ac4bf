"""Panel-of-agents deliberation over tables.

A panel of persona-conditioned chat agents answers table-reasoning queries
(free-form QA, three-way fact verification, denotation tasks) through
individual investigation, self-review, and peer review; one vote over the
panel's answers ends every run.

Each name is imported from the module that defines it, for example
``tablepanel.deliberation.run_panel`` or ``tablepanel.datasets.load``.
"""

__version__ = "0.1.0"
