"""vsrkit: a desk-scale, cascade-free multitask sequence recognition
toolkit with semantic-guided local contrastive alignment.

The package re-exports nothing: callers import the submodules by name,
e.g. ``from vsrkit.model import Model``."""

__version__ = "0.1.0"
