//! Entities of the IoT system model: devices, software stacks and software
//! components.
//!
//! The paper stresses that IoT "is increasingly made up of software" hosted
//! on heterogeneous devices "from microcontrollers to mobile phones and
//! micro-clouds" (§I). This module gives those notions first-class,
//! analyzable representations: a [`Device`] has a hardware class, resource
//! [`Capabilities`] and a [`SoftwareStack`]; a component, named by a
//! [`ComponentId`], moves through a [`ComponentState`] lifecycle.

use std::fmt;

/// Identifies a device within a system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

/// Identifies a software component within a system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmp{}", self.0)
    }
}

/// Hardware classes spanning the paper's device spectrum (§I: "from
/// microcontrollers to mobile phones and micro-clouds").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A bare microcontroller: sensing/actuation only, minimal software.
    Microcontroller,
    /// A battery-powered sensor node with a small RTOS.
    SensorNode,
    /// An actuator controller operating on the physical environment.
    ActuatorNode,
    /// A network gateway bridging device networks to IP.
    Gateway,
    /// A mobile personal device (phone, vehicle unit).
    Mobile,
    /// A cloudlet / micro-cloud: an edge server.
    Cloudlet,
    /// A full cloud server.
    CloudServer,
}

/// Resource capabilities of a device (the "technical specification and
/// configuration details" of §III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capabilities {
    /// Processing budget, in abstract MIPS.
    pub cpu_mips: u32,
    /// Memory in KiB.
    pub mem_kib: u32,
    /// Persistent storage in KiB.
    pub storage_kib: u32,
    /// Battery capacity in mAh; `None` for mains-powered devices.
    pub battery_mah: Option<u32>,
}

impl Capabilities {
    /// Typical capabilities for a device class.
    pub fn typical(class: DeviceClass) -> Self {
        match class {
            DeviceClass::Microcontroller => Capabilities {
                cpu_mips: 20,
                mem_kib: 64,
                storage_kib: 256,
                battery_mah: Some(500),
            },
            DeviceClass::SensorNode => Capabilities {
                cpu_mips: 100,
                mem_kib: 512,
                storage_kib: 4_096,
                battery_mah: Some(2_000),
            },
            DeviceClass::ActuatorNode => Capabilities {
                cpu_mips: 100,
                mem_kib: 512,
                storage_kib: 4_096,
                battery_mah: None,
            },
            DeviceClass::Gateway => Capabilities {
                cpu_mips: 2_000,
                mem_kib: 524_288,
                storage_kib: 8_388_608,
                battery_mah: None,
            },
            DeviceClass::Mobile => Capabilities {
                cpu_mips: 10_000,
                mem_kib: 4_194_304,
                storage_kib: 67_108_864,
                battery_mah: Some(4_000),
            },
            DeviceClass::Cloudlet => Capabilities {
                cpu_mips: 50_000,
                mem_kib: 16_777_216,
                storage_kib: 536_870_912,
                battery_mah: None,
            },
            DeviceClass::CloudServer => Capabilities {
                cpu_mips: 500_000,
                mem_kib: 268_435_456,
                storage_kib: u32::MAX,
                battery_mah: None,
            },
        }
    }
}

/// Operating-system families found across IoT stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// No OS — bare-metal firmware.
    BareMetal,
    /// A real-time OS (FreeRTOS, Zephyr, RIOT-OS...).
    Rtos,
    /// Embedded Linux.
    EmbeddedLinux,
    /// A mobile OS.
    MobileOs,
    /// A server OS with virtualization.
    ServerOs,
}

/// Application runtimes hosted on a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Compiled native firmware.
    Native,
    /// A container runtime.
    Containers,
    /// A managed language VM.
    ManagedVm,
    /// A function-as-a-service / deviceless runtime (the paper's ML4
    /// "deviceless paradigm").
    Deviceless,
}

/// Wire protocols spoken by a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Constrained application protocol.
    Coap,
    /// MQTT pub/sub.
    Mqtt,
    /// Plain HTTP(S).
    Http,
    /// A vendor-proprietary protocol (the ML1 silo case).
    Proprietary,
}

/// The software stack of a device — the unit of *heterogeneity* in the
/// paper's challenge list (§III-A challenge 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareStack {
    /// Operating system family.
    pub os: OsKind,
    /// Application runtime.
    pub runtime: RuntimeKind,
    /// Protocols spoken, sorted and deduplicated on construction.
    protocols: Vec<ProtocolKind>,
}

impl SoftwareStack {
    /// Creates a stack; protocols are sorted and deduplicated so equality is
    /// structural.
    pub fn new(os: OsKind, runtime: RuntimeKind, mut protocols: Vec<ProtocolKind>) -> Self {
        protocols.sort_unstable();
        protocols.dedup();
        SoftwareStack {
            os,
            runtime,
            protocols,
        }
    }

    /// Protocols spoken by this stack.
    pub fn protocols(&self) -> &[ProtocolKind] {
        &self.protocols
    }

    /// `true` if the two stacks share at least one protocol — the minimal
    /// condition for direct interoperation.
    pub fn interoperates_with(&self, other: &SoftwareStack) -> bool {
        self.protocols.iter().any(|p| other.protocols.contains(p))
    }

    /// A typical stack for a device class.
    pub fn typical(class: DeviceClass) -> Self {
        match class {
            DeviceClass::Microcontroller => SoftwareStack::new(
                OsKind::BareMetal,
                RuntimeKind::Native,
                vec![ProtocolKind::Proprietary],
            ),
            DeviceClass::SensorNode | DeviceClass::ActuatorNode => SoftwareStack::new(
                OsKind::Rtos,
                RuntimeKind::Native,
                vec![ProtocolKind::Coap, ProtocolKind::Mqtt],
            ),
            DeviceClass::Gateway => SoftwareStack::new(
                OsKind::EmbeddedLinux,
                RuntimeKind::Containers,
                vec![ProtocolKind::Coap, ProtocolKind::Mqtt, ProtocolKind::Http],
            ),
            DeviceClass::Mobile => SoftwareStack::new(
                OsKind::MobileOs,
                RuntimeKind::ManagedVm,
                vec![ProtocolKind::Mqtt, ProtocolKind::Http],
            ),
            DeviceClass::Cloudlet | DeviceClass::CloudServer => SoftwareStack::new(
                OsKind::ServerOs,
                RuntimeKind::Deviceless,
                vec![ProtocolKind::Coap, ProtocolKind::Mqtt, ProtocolKind::Http],
            ),
        }
    }
}

/// Fraction of unordered stack pairs that can interoperate directly
/// (share at least one protocol) — a fleet-level measure of the paper's
/// heterogeneity challenge (§III-A challenge 1). A single-stack fleet is
/// vacuously fully interoperable.
///
/// # Examples
///
/// ```
/// use riot_model::{interoperability, DeviceClass, SoftwareStack};
///
/// let fleet = [
///     SoftwareStack::typical(DeviceClass::Microcontroller), // proprietary silo
///     SoftwareStack::typical(DeviceClass::Gateway),
///     SoftwareStack::typical(DeviceClass::CloudServer),
/// ];
/// // Gateway↔Cloud talk; the microcontroller talks to neither.
/// assert!((interoperability(&fleet) - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn interoperability(stacks: &[SoftwareStack]) -> f64 {
    let n = stacks.len();
    if n < 2 {
        return 1.0;
    }
    let mut pairs = 0usize;
    let mut ok = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            pairs += 1;
            // riot-lint: allow(P1, reason = "i < j < stacks.len() by the loop bounds")
            if stacks[i].interoperates_with(&stacks[j]) {
                ok += 1;
            }
        }
    }
    ok as f64 / pairs as f64
}

/// A device of the system model.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Model-wide identity.
    pub id: DeviceId,
    /// Human-readable name.
    pub name: String,
    /// Hardware class.
    pub class: DeviceClass,
    /// Resource capabilities.
    pub capabilities: Capabilities,
    /// Hosted software stack.
    pub stack: SoftwareStack,
}

impl Device {
    /// Creates a device with the typical capabilities and stack of its
    /// class.
    pub fn typical(id: DeviceId, name: impl Into<String>, class: DeviceClass) -> Self {
        Device {
            id,
            name: name.into(),
            class,
            capabilities: Capabilities::typical(class),
            stack: SoftwareStack::typical(class),
        }
    }
}

/// Lifecycle states of a deployed component (the paper's "independent
/// software components with different lifespans").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentState {
    /// Installed but not running.
    Stopped,
    /// Running and healthy.
    Running,
    /// Running but degraded (e.g. failing health checks).
    Degraded,
    /// Crashed; needs recovery.
    Failed,
}

impl ComponentState {
    /// `true` when the component is providing service (possibly degraded).
    pub fn provides_service(self) -> bool {
        matches!(self, ComponentState::Running | ComponentState::Degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microcontroller_cannot_interoperate_with_cloud_directly() {
        let mcu = SoftwareStack::typical(DeviceClass::Microcontroller);
        let cloud = SoftwareStack::typical(DeviceClass::CloudServer);
        let gw = SoftwareStack::typical(DeviceClass::Gateway);
        assert!(
            !mcu.interoperates_with(&cloud),
            "proprietary silo cannot reach cloud"
        );
        assert!(gw.interoperates_with(&cloud));
        assert!(
            !gw.interoperates_with(&mcu),
            "gateway lacks the proprietary protocol"
        );
    }

    #[test]
    fn stack_protocols_are_normalized() {
        let s = SoftwareStack::new(
            OsKind::Rtos,
            RuntimeKind::Native,
            vec![ProtocolKind::Mqtt, ProtocolKind::Coap, ProtocolKind::Mqtt],
        );
        assert_eq!(s.protocols(), &[ProtocolKind::Coap, ProtocolKind::Mqtt]);
    }

    #[test]
    fn interoperability_metric() {
        // Empty and singleton fleets are vacuously interoperable.
        assert_eq!(interoperability(&[]), 1.0);
        assert_eq!(
            interoperability(&[SoftwareStack::typical(DeviceClass::Gateway)]),
            1.0
        );
        // A homogeneous fleet is fully interoperable.
        let homo = vec![SoftwareStack::typical(DeviceClass::Gateway); 4];
        assert_eq!(interoperability(&homo), 1.0);
        // A fleet of mutually-silent silos scores zero.
        let silos = vec![
            SoftwareStack::typical(DeviceClass::Microcontroller),
            SoftwareStack::typical(DeviceClass::CloudServer),
        ];
        assert_eq!(interoperability(&silos), 0.0);
    }

    #[test]
    fn typical_device_is_consistent() {
        let d = Device::typical(DeviceId(1), "s1", DeviceClass::SensorNode);
        assert_eq!(d.class, DeviceClass::SensorNode);
        assert!(d.capabilities.battery_mah.is_some());
        assert_eq!(d.stack, SoftwareStack::typical(DeviceClass::SensorNode));
        assert_eq!(d.id.to_string(), "dev1");
    }

    #[test]
    fn component_state_service() {
        assert!(ComponentState::Running.provides_service());
        assert!(ComponentState::Degraded.provides_service());
        assert!(!ComponentState::Failed.provides_service());
        assert!(!ComponentState::Stopped.provides_service());
        assert_eq!(ComponentId(3).to_string(), "cmp3");
    }
}
