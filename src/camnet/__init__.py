"""camnet: a self-contained CNN training and saliency toolkit.

From-scratch float32/float64 primitives with verified backward rules, a
VGG-style model graph, deterministic training (float32 compute against
float64 master weights), an image pipeline with seeded augmentation, and
gradient-based class activation maps (float64).
"""

__version__ = "0.1.0"
