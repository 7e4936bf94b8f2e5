"""Physics-structured identification of floating-body dynamics in 2-D flows.

Modules:
    autodiff    reverse-mode tape, dense layers, Adam
    physics     ground-truth dynamics, integrators, scenarios, datasets
    model       learnable dynamics (structured and black-box variants)
    training    losses and the training loop
"""

__version__ = "0.1.0"
