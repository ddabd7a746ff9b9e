"""Fleet topology: machines, clusters, and data centers.

The study spans "hundreds of clusters deployed in 28 data centers"
across 14 countries (§2.1), and regular testing proceeds in machine
groups: "machines will be regularly tested in groups.  Testing for each
group lasts about 2 weeks, and testing for the whole fleet needs
months" (§2.4).  The topology here exists to realize that staggered
group schedule and to give per-datacenter accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from ..errors import ConfigurationError
from ..rng import substream
from ..cpu.processor import Processor
from .population import FleetPopulation

__all__ = ["Machine", "Cluster", "Datacenter", "FleetTopology", "build_topology"]

N_DATACENTERS = 28  # §1
N_COUNTRIES = 14


@dataclass
class Machine:
    """One server; in this fleet a machine hosts one processor."""

    machine_id: str
    processor: Processor


@dataclass
class Cluster:
    cluster_id: str
    machines: List[Machine] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.machines)


@dataclass
class Datacenter:
    datacenter_id: str
    country: str
    clusters: List[Cluster] = field(default_factory=list)

    def machines(self) -> Iterator[Machine]:
        for cluster in self.clusters:
            yield from cluster.machines


@dataclass
class FleetTopology:
    """Datacenters plus the regular-testing group schedule.

    Only *faulty* machines are materialized (healthy ones are counted
    in the population); the group schedule nonetheless spaces test
    times as if the whole fleet were being cycled.
    """

    datacenters: List[Datacenter]
    #: Days between successive groups starting their regular-test slot.
    group_stagger_days: float = 14.0
    #: Number of groups the fleet is divided into; whole-fleet coverage
    #: therefore takes ``n_groups * group_stagger_days`` days — months,
    #: as §2.4 describes.
    n_groups: int = 6

    def machines(self) -> List[Machine]:
        return [m for dc in self.datacenters for m in dc.machines()]

    def group_of(self, machine: Machine) -> int:
        """Stable group assignment for the staggered schedule."""
        return sum(machine.machine_id.encode()) % self.n_groups

    def regular_test_offset_days(self, machine: Machine) -> float:
        """Day offset of a machine's slot within each regular round."""
        return self.group_of(machine) * self.group_stagger_days


def build_topology(
    population: FleetPopulation,
    n_datacenters: int = N_DATACENTERS,
    n_countries: int = N_COUNTRIES,
    clusters_per_datacenter: int = 12,
    seed: int = 7,
) -> FleetTopology:
    """Distribute the population's faulty machines over a topology."""
    if n_datacenters <= 0 or n_countries <= 0 or clusters_per_datacenter <= 0:
        raise ConfigurationError("topology sizes must be positive")
    rng = substream(seed, "topology")
    datacenters = [
        Datacenter(
            datacenter_id=f"DC{i:02d}",
            country=f"country-{i % n_countries:02d}",
            clusters=[
                Cluster(cluster_id=f"DC{i:02d}-C{j:02d}")
                for j in range(clusters_per_datacenter)
            ],
        )
        for i in range(n_datacenters)
    ]
    for index, processor in enumerate(population.faulty):
        dc = datacenters[int(rng.integers(n_datacenters))]
        cluster = dc.clusters[int(rng.integers(clusters_per_datacenter))]
        cluster.machines.append(
            Machine(machine_id=f"M{index:06d}", processor=processor)
        )
    return FleetTopology(datacenters=datacenters)
