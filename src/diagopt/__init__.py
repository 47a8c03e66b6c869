"""Assignment optimization on fixed decision-diagram skeletons.

The toolkit evaluates item/method assignments against a weighted examinee
population, encodes the three optimization settings as binary programs with
LP text export, and solves them natively by exact branch-and-bound verified
against an exhaustive oracle. ``diagopt.problem`` holds ``Instance`` and
``SETTINGS``, the one definition of each setting's sense, objective and side
rows; the shipped instances are ``fileio.InstanceDoc`` templates.
"""
__version__ = "0.1.0"
