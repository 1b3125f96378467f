"""Decomposed building energy performance prediction.

A small feed-forward network predicts the twelve physical quantities of a
building envelope (five component areas, five U-values, air exchange
rate, specific heat gains) from general registry features. Training adds
a physics term to the loss: the predicted quantities are pushed through a
closed-form annual heating-energy balance and compared against measured
consumption, so the network's outputs stay physically consistent.

The modules are the API: each name is imported from its one module
(epc_pinn.data, epc_pinn.train, ...); this package root defines none.
"""
