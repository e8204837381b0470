"""Hardware-cost-guided architecture search over a shared-weight super-network."""
