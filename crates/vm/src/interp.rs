//! The IR interpreter.
//!
//! Pointers are 64-bit values in two spaces:
//! - **native** (untagged, bits 48–63 zero): VM-managed flat memory for
//!   globals, stack slots and plain (non-DS) heap allocations;
//! - **far** (tagged): routed through [`cards_runtime::FarMemRuntime`],
//!   exactly as the custody check of Figure 3 separates them.
//!
//! The VM executes far-memory extension instructions (`dsinit`, `dsalloc`,
//! `guard`, `remotable`) literally, so guard counts, elisions and fast-path
//! dispatches are *measured*, not estimated.

use cards_ir::{
    AccessKind, BinOp, BlockId, CastOp, CmpOp, DsMeta, FuncId, GepIdx, Inst, InstId, Intrinsic,
    Module, Type, Value,
};
use cards_net::Transport;
use cards_runtime::telemetry::EventKind;
use cards_runtime::{
    assign_hints_explained, Access, DsSpec, FarMemRuntime, FarPtr, RemotingPolicy, RtError,
    RuntimeConfig, StaticHint,
};

use crate::metrics::{CpuModel, VmMetrics};

/// Base of the native address space (so null and small ints never alias).
const NATIVE_BASE: u64 = 0x1_0000;
/// Encoded "address" of function `f` is `FUNC_BASE + f` (for indirect calls).
const FUNC_BASE: u64 = 0x7000_0000_0000;

/// VM failures (all are hard stops; the VM is deterministic).
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// Named function not found.
    NoSuchFunction(String),
    /// Access outside native memory.
    NativeOob {
        /// Offending address.
        addr: u64,
        /// Bytes attempted.
        bytes: u64,
    },
    /// Division or remainder by zero.
    DivByZero,
    /// Call depth exceeded the configured limit.
    StackOverflow,
    /// Error surfaced by the far-memory runtime.
    Runtime(RtError),
    /// Indirect call through a value that is not a function address.
    BadIndirectCall(u64),
    /// Block ended without a terminator (verifier should prevent this).
    MissingTerminator,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NoSuchFunction(n) => write!(f, "no function @{n}"),
            VmError::NativeOob { addr, bytes } => {
                write!(f, "native access {bytes}B @ {addr:#x} out of bounds")
            }
            VmError::DivByZero => write!(f, "integer division by zero"),
            VmError::StackOverflow => write!(f, "call depth limit exceeded"),
            VmError::Runtime(e) => write!(f, "runtime: {e}"),
            VmError::BadIndirectCall(v) => write!(f, "indirect call to non-function {v:#x}"),
            VmError::MissingTerminator => write!(f, "block fell through"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<RtError> for VmError {
    fn from(e: RtError) -> Self {
        VmError::Runtime(e)
    }
}

/// The virtual machine: one module + one far-memory runtime.
pub struct Vm<T: Transport> {
    module: Module,
    runtime: FarMemRuntime<T>,
    cpu: CpuModel,
    native: Vec<u8>,
    /// End of the last heap `Alloc` in `native`: a returning frame frees
    /// its stack slots down to here at most.
    heap_end: usize,
    global_addr: Vec<u64>,
    /// Remoting hints per DsMeta id, fixed at VM construction.
    hints: Vec<StaticHint>,
    /// Meta id of each runtime DS registration, in handle order.
    registrations: Vec<u32>,
    metrics: VmMetrics,
    max_depth: usize,
}

impl<T: Transport> Vm<T> {
    /// Build a VM for `module` with the given runtime budgets, transport
    /// and remoting policy (applied to the module's DS metadata with
    /// threshold `k_percent`).
    pub fn new(
        module: Module,
        rt_config: RuntimeConfig,
        transport: T,
        policy: RemotingPolicy,
        k_percent: u32,
    ) -> Self {
        let specs: Vec<DsSpec> = module
            .ds_metas
            .iter()
            .map(|m| spec_from_meta(&module, m))
            .collect();
        let (hints, decisions) = assign_hints_explained(&specs, policy, k_percent);
        let mut vm = Self::with_hints(module, rt_config, transport, hints);
        // Record why each DS was (not) pinned on the telemetry timeline.
        for d in decisions {
            let cycle = vm.runtime.now();
            vm.runtime.telemetry_mut().emit(
                cycle,
                EventKind::PolicyDecision {
                    ds: d.index as u16,
                    pinned: d.hint == StaticHint::Pinned,
                    why: d.why,
                },
            );
        }
        vm
    }

    /// Build a VM with explicit per-meta remoting hints (used by the
    /// profile-guided Mira baseline, which derives hints from a prior run).
    pub fn with_hints(
        module: Module,
        rt_config: RuntimeConfig,
        transport: T,
        hints: Vec<StaticHint>,
    ) -> Self {
        assert_eq!(hints.len(), module.ds_metas.len(), "one hint per DS meta");
        let runtime = FarMemRuntime::new(rt_config, transport);
        let native = vec![0; NATIVE_BASE as usize];
        let mut vm = Vm {
            module,
            runtime,
            cpu: CpuModel::default(),
            native,
            heap_end: 0,
            global_addr: Vec::new(),
            hints,
            registrations: Vec::new(),
            metrics: VmMetrics::default(),
            max_depth: 120,
        };
        vm.layout_globals();
        vm
    }

    fn layout_globals(&mut self) {
        for gi in 0..self.module.globals.len() {
            let g = &self.module.globals[gi];
            let sz = self.module.types.size_of(g.ty).max(8);
            let init = g.init;
            let addr = self.native_alloc(sz);
            self.global_addr.push(addr);
            if let Some(v) = init {
                let bits = match v {
                    Value::ConstInt(c) => c as u64,
                    Value::ConstFloat(b) => b,
                    Value::Null => 0,
                    _ => 0,
                };
                let s = self.module.types.size_of(self.module.globals[gi].ty).min(8) as usize;
                let a = addr as usize;
                self.native[a..a + s].copy_from_slice(&bits.to_le_bytes()[..s]);
            }
        }
    }

    fn native_alloc(&mut self, size: u64) -> u64 {
        let addr = (self.native.len() as u64 + 15) & !15;
        self.native.resize((addr + size.max(1)) as usize, 0);
        addr
    }

    /// Run function `name` with integer arguments. Returns its result bits.
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<Option<u64>, VmError> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| VmError::NoSuchFunction(name.to_string()))?;
        self.call_function(fid, args.to_vec(), 0)
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &VmMetrics {
        &self.metrics
    }

    /// The far-memory runtime (per-DS stats, network stats).
    pub fn runtime(&self) -> &FarMemRuntime<T> {
        &self.runtime
    }

    /// Mutable runtime access — lets harnesses install pressure schedules
    /// or force flushes between (not during) executions.
    pub fn runtime_mut(&mut self) -> &mut FarMemRuntime<T> {
        &mut self.runtime
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Remoting hints chosen for each DS meta.
    pub fn hints(&self) -> &[StaticHint] {
        &self.hints
    }

    /// Current 8-byte little-endian value of global `name` in native
    /// memory. Globals live in local memory under every configuration, so
    /// this is a layout-independent observable — the differential-testing
    /// oracle reads the generated programs' `@digest` global through it.
    pub fn global_u64(&self, name: &str) -> Option<u64> {
        let gi = self.module.globals.iter().position(|g| g.name == name)?;
        let addr = *self.global_addr.get(gi)? as usize;
        let bytes = self.native.get(addr..addr + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Meta id of each runtime DS registration, indexed by runtime handle.
    pub fn registrations(&self) -> &[u32] {
        &self.registrations
    }

    /// Override the recursion depth limit (default 120; interpreter frames
    /// are large, so raise this only with a correspondingly larger thread
    /// stack).
    pub fn set_max_depth(&mut self, d: usize) {
        self.max_depth = d;
    }

    fn charge(&mut self, c: u64) {
        self.metrics.cycles += c;
    }

    fn call_function(
        &mut self,
        fid: FuncId,
        args: Vec<u64>,
        depth: usize,
    ) -> Result<Option<u64>, VmError> {
        if depth > self.max_depth {
            return Err(VmError::StackOverflow);
        }
        let stack_mark = self.native.len();
        let ninsts = self.module.func(fid).insts.len();
        let mut regs: Vec<u64> = vec![0; ninsts];
        let mut block = self.module.func(fid).entry();
        let mut prev: Option<BlockId> = None;

        'blocks: loop {
            // Phase 1: phis (parallel evaluation against predecessor).
            let insts = self.module.func(fid).block(block).insts.clone();
            let mut phi_writes: Vec<(InstId, u64)> = Vec::new();
            for &iid in &insts {
                let Inst::Phi { incoming, .. } = self.module.func(fid).inst(iid) else {
                    break;
                };
                let from = prev.expect("phi in entry block");
                let v = incoming
                    .iter()
                    .find(|&&(b, _)| b == from)
                    .map(|&(_, v)| v)
                    .expect("verified phi has incoming for pred");
                phi_writes.push((iid, self.eval(v, &args, &regs)));
            }
            for (iid, v) in phi_writes {
                regs[iid.0 as usize] = v;
                self.metrics.instructions += 1;
                self.charge(self.cpu.alu);
            }
            // Phase 2: the rest.
            for (pos, &iid) in insts.iter().enumerate() {
                let inst = self.module.func(fid).inst(iid).clone();
                if matches!(inst, Inst::Phi { .. }) {
                    continue;
                }
                self.metrics.instructions += 1;
                match inst {
                    Inst::Alloc { size, .. } => {
                        let sz = self.eval(size, &args, &regs);
                        self.charge(self.cpu.alloc);
                        let addr = self.native_alloc(sz);
                        self.heap_end = self.native.len();
                        regs[iid.0 as usize] = addr;
                    }
                    Inst::AllocStack { ty } => {
                        let sz = self.module.types.size_of(ty);
                        self.charge(self.cpu.alloc / 10 + 1);
                        let addr = self.native_alloc(sz);
                        regs[iid.0 as usize] = addr;
                    }
                    Inst::Free { ptr } => {
                        let p = self.eval(ptr, &args, &regs);
                        let fp = FarPtr(p);
                        self.charge(self.cpu.alloc / 2);
                        if fp.is_tagged() {
                            let c = self.runtime.free(fp)?;
                            self.charge(c);
                        }
                    }
                    Inst::Load { ptr, ty } => {
                        let p = self.eval(ptr, &args, &regs);
                        let v = self.mem_read(p, ty)?;
                        self.metrics.loads += 1;
                        self.charge(self.cpu.mem);
                        regs[iid.0 as usize] = v;
                    }
                    Inst::Store { ptr, val, ty } => {
                        let p = self.eval(ptr, &args, &regs);
                        let v = self.eval(val, &args, &regs);
                        self.metrics.stores += 1;
                        self.charge(self.cpu.mem);
                        self.mem_write(p, v, ty)?;
                    }
                    Inst::Gep {
                        base,
                        pointee,
                        indices,
                    } => {
                        let b = self.eval(base, &args, &regs);
                        let disp = self.gep_disp(pointee, &indices, &args, &regs);
                        self.charge(self.cpu.alu);
                        regs[iid.0 as usize] = b.wrapping_add(disp);
                    }
                    Inst::Bin { op, lhs, rhs, ty } => {
                        let a = self.eval(lhs, &args, &regs);
                        let b = self.eval(rhs, &args, &regs);
                        self.charge(self.cpu.alu);
                        regs[iid.0 as usize] = bin_op(op, a, b, ty)?;
                    }
                    Inst::Cmp { op, lhs, rhs } => {
                        let a = self.eval(lhs, &args, &regs);
                        let b = self.eval(rhs, &args, &regs);
                        self.charge(self.cpu.alu);
                        regs[iid.0 as usize] = cmp_op(op, a, b) as u64;
                    }
                    Inst::Cast { op, val, to } => {
                        let v = self.eval(val, &args, &regs);
                        self.charge(self.cpu.alu);
                        regs[iid.0 as usize] = cast_op(op, v, to);
                    }
                    Inst::Select {
                        cond,
                        then_v,
                        else_v,
                        ..
                    } => {
                        let c = self.eval(cond, &args, &regs);
                        self.charge(self.cpu.alu);
                        regs[iid.0 as usize] = if c != 0 {
                            self.eval(then_v, &args, &regs)
                        } else {
                            self.eval(else_v, &args, &regs)
                        };
                    }
                    Inst::Intrin { which, args: ia } => {
                        let vals: Vec<u64> =
                            ia.iter().map(|&v| self.eval(v, &args, &regs)).collect();
                        self.charge(self.cpu.intrin);
                        regs[iid.0 as usize] = intrin_op(which, &vals);
                    }
                    Inst::Call { callee, args: ca } => {
                        let vals: Vec<u64> =
                            ca.iter().map(|&v| self.eval(v, &args, &regs)).collect();
                        self.metrics.calls += 1;
                        self.charge(self.cpu.call);
                        let r = self.call_function(callee, vals, depth + 1)?;
                        regs[iid.0 as usize] = r.unwrap_or(0);
                    }
                    Inst::CallIndirect {
                        callee, args: ca, ..
                    } => {
                        let target = self.eval(callee, &args, &regs);
                        if !(FUNC_BASE..FUNC_BASE + self.module.functions.len() as u64)
                            .contains(&target)
                        {
                            return Err(VmError::BadIndirectCall(target));
                        }
                        let f = FuncId((target - FUNC_BASE) as u32);
                        let vals: Vec<u64> =
                            ca.iter().map(|&v| self.eval(v, &args, &regs)).collect();
                        self.metrics.calls += 1;
                        self.charge(self.cpu.call);
                        let r = self.call_function(f, vals, depth + 1)?;
                        regs[iid.0 as usize] = r.unwrap_or(0);
                    }
                    Inst::Br { target } => {
                        self.charge(self.cpu.branch);
                        prev = Some(block);
                        block = target;
                        continue 'blocks;
                    }
                    Inst::CondBr {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        let c = self.eval(cond, &args, &regs);
                        self.charge(self.cpu.branch);
                        // Track fast-path dispatch: a condbr directly fed by
                        // a RemotableCheck is the versioning dispatch.
                        if let Value::Inst(ci) = cond {
                            if matches!(self.module.func(fid).inst(ci), Inst::RemotableCheck { .. })
                            {
                                if c != 0 {
                                    self.metrics.slow_path_taken += 1;
                                } else {
                                    self.metrics.fast_path_taken += 1;
                                }
                                let cycle = self.runtime.now();
                                self.runtime
                                    .telemetry_mut()
                                    .emit(cycle, EventKind::Dispatch { slow: c != 0 });
                                if let Some(site) = self.module.sites.lookup(fid, ci) {
                                    self.runtime.profiler_mut().on_dispatch(site.0, c != 0);
                                }
                            }
                        }
                        prev = Some(block);
                        block = if c != 0 { then_b } else { else_b };
                        continue 'blocks;
                    }
                    Inst::Ret { val } => {
                        self.charge(self.cpu.branch);
                        let ret = val.map(|v| self.eval(v, &args, &regs));
                        // Pop this frame's stack slots (heap allocations
                        // made since entry stay).
                        self.native.truncate(stack_mark.max(self.heap_end));
                        return Ok(ret);
                    }
                    Inst::DsInit { meta } => {
                        let spec = spec_from_meta(&self.module, self.module.ds_meta(meta));
                        let hint = self.hints[meta.0 as usize];
                        let h = self.runtime.register_ds(spec, hint);
                        self.registrations.push(meta.0);
                        self.charge(100);
                        regs[iid.0 as usize] = h as u64;
                    }
                    Inst::DsAlloc { size, handle } => {
                        let sz = self.eval(size, &args, &regs);
                        let h = self.eval(handle, &args, &regs) as u16;
                        let (p, c) = self.runtime.ds_alloc(h, sz)?;
                        self.charge(self.cpu.alloc + c);
                        regs[iid.0 as usize] = p.bits();
                    }
                    Inst::Guard { ptr, access, bytes } => {
                        let p = self.eval(ptr, &args, &regs);
                        self.metrics.guards += 1;
                        let acc = match access {
                            AccessKind::Read => Access::Read,
                            AccessKind::Write => Access::Write,
                        };
                        // Surface the executing site to the profiler so the
                        // runtime charges this check's cost to it.
                        let site = self.module.sites.lookup(fid, iid).map(|s| s.0);
                        self.runtime.profiler_mut().set_current(site);
                        let r = self.runtime.guard(FarPtr(p), acc, bytes);
                        self.runtime.profiler_mut().set_current(None);
                        let c = r?;
                        self.charge(c);
                        regs[iid.0 as usize] = p; // localized ptr == same bits
                    }
                    Inst::RemotableCheck { handles } => {
                        let hs: Vec<u16> = handles
                            .iter()
                            .map(|&h| self.eval(h, &args, &regs) as u16)
                            .collect();
                        self.metrics.remotable_checks += 1;
                        let (any, c) = self.runtime.remotable_check(&hs);
                        self.charge(c);
                        regs[iid.0 as usize] = any as u64;
                    }
                    Inst::Phi { .. } => unreachable!(),
                }
                // a block must end with its terminator
                if pos + 1 == insts.len() {
                    return Err(VmError::MissingTerminator);
                }
            }
            return Err(VmError::MissingTerminator);
        }
    }

    fn eval(&self, v: Value, args: &[u64], regs: &[u64]) -> u64 {
        match v {
            Value::Arg(i) => args.get(i as usize).copied().unwrap_or(0),
            Value::Inst(i) => regs[i.0 as usize],
            Value::ConstInt(c) => c as u64,
            Value::ConstFloat(b) => b,
            Value::Global(g) => self.global_addr[g.0 as usize],
            Value::Func(f) => FUNC_BASE + f.0 as u64,
            Value::Null => 0,
            Value::Undef => 0,
        }
    }

    fn gep_disp(&self, pointee: Type, indices: &[GepIdx], args: &[u64], regs: &[u64]) -> u64 {
        let types = &self.module.types;
        let mut disp = 0u64;
        let mut cur = pointee;
        for (k, ix) in indices.iter().enumerate() {
            match ix {
                GepIdx::Field(n) => {
                    if let Type::Struct(sid) = cur {
                        disp = disp.wrapping_add(types.field_offset(sid, *n));
                        cur = types.struct_ty(sid).fields[*n as usize];
                    }
                }
                GepIdx::Index(v) => {
                    let idx = self.eval(*v, args, regs);
                    let sz = if k == 0 {
                        types.size_of(cur)
                    } else if let Type::Array(a) = cur {
                        let at = types.array_ty(a);
                        cur = at.elem;
                        types.size_of(at.elem)
                    } else {
                        types.size_of(cur)
                    };
                    disp = disp.wrapping_add(idx.wrapping_mul(sz));
                }
            }
        }
        disp
    }

    fn mem_read(&mut self, ptr: u64, ty: Type) -> Result<u64, VmError> {
        let size = self.module.types.size_of(ty).clamp(1, 8) as usize;
        let mut buf = [0u8; 8];
        let fp = FarPtr(ptr);
        if fp.is_tagged() {
            let c = self.runtime.read(fp, &mut buf[..size])?;
            self.charge(c);
        } else {
            let a = ptr as usize;
            if a < NATIVE_BASE as usize || a + size > self.native.len() {
                return Err(VmError::NativeOob {
                    addr: ptr,
                    bytes: size as u64,
                });
            }
            buf[..size].copy_from_slice(&self.native[a..a + size]);
        }
        let raw = u64::from_le_bytes(buf);
        Ok(extend(raw, ty))
    }

    fn mem_write(&mut self, ptr: u64, val: u64, ty: Type) -> Result<(), VmError> {
        let size = self.module.types.size_of(ty).clamp(1, 8) as usize;
        let bytes = val.to_le_bytes();
        let fp = FarPtr(ptr);
        if fp.is_tagged() {
            let c = self.runtime.write(fp, &bytes[..size])?;
            self.charge(c);
        } else {
            let a = ptr as usize;
            if a < NATIVE_BASE as usize || a + size > self.native.len() {
                return Err(VmError::NativeOob {
                    addr: ptr,
                    bytes: size as u64,
                });
            }
            self.native[a..a + size].copy_from_slice(&bytes[..size]);
        }
        Ok(())
    }
}

/// Lower a compiler [`DsMeta`] to the runtime's [`DsSpec`].
pub fn spec_from_meta(module: &Module, meta: &DsMeta) -> DsSpec {
    let elem_bytes = meta.elem_ty.map(|t| module.types.size_of(t));
    let ptr_offsets = meta
        .elem_ty
        .map(|t| module.types.pointer_field_offsets(t))
        .unwrap_or_default();
    DsSpec {
        name: meta.name.clone(),
        object_bytes: meta.object_bytes,
        elem_bytes,
        ptr_offsets,
        recursive: meta.recursive,
        prefetch: match meta.prefetch {
            cards_ir::PrefetchKind::None => cards_runtime::PrefetchKind::None,
            cards_ir::PrefetchKind::Stride => cards_runtime::PrefetchKind::Stride,
            cards_ir::PrefetchKind::GreedyRecursive => cards_runtime::PrefetchKind::GreedyRecursive,
            cards_ir::PrefetchKind::JumpPointer => cards_runtime::PrefetchKind::JumpPointer,
        },
        priority: cards_runtime::DsPriority {
            program_order: meta.priority.program_order,
            reach_depth: meta.priority.reach_depth,
            use_score: meta.priority.use_score,
        },
    }
}

fn extend(raw: u64, ty: Type) -> u64 {
    cards_ir::consteval::extend(raw, ty)
}

fn width_mask(ty: Type) -> u64 {
    cards_ir::consteval::width_mask(ty)
}

/// Binary-op semantics are shared with the optimizer's constant folder
/// (`cards_ir::consteval`) so the two can never drift apart.
fn bin_op(op: BinOp, a: u64, b: u64, ty: Type) -> Result<u64, VmError> {
    cards_ir::consteval::eval_bin(op, a, b, ty).map_err(|_| VmError::DivByZero)
}

fn cmp_op(op: CmpOp, a: u64, b: u64) -> bool {
    cards_ir::consteval::eval_cmp(op, a, b)
}

fn cast_op(op: CastOp, v: u64, to: Type) -> u64 {
    match op {
        CastOp::IntResize => extend(v & width_mask(to), to),
        CastOp::ZExt => v & width_mask(to),
        CastOp::SiToFp => (v as i64 as f64).to_bits(),
        CastOp::FpToSi => (f64::from_bits(v) as i64) as u64,
        CastOp::PtrToInt | CastOp::IntToPtr | CastOp::PtrCast => v,
    }
}

fn intrin_op(which: Intrinsic, args: &[u64]) -> u64 {
    match which {
        Intrinsic::Hash64 => splitmix64(args[0]),
        Intrinsic::Sqrt => f64::from_bits(args[0]).sqrt().to_bits(),
        Intrinsic::AbsI64 => (args[0] as i64).wrapping_abs() as u64,
        Intrinsic::MinI64 => (args[0] as i64).min(args[1] as i64) as u64,
        Intrinsic::MaxI64 => (args[0] as i64).max(args[1] as i64) as u64,
    }
}

/// SplitMix64 finalizer: the `hash64` intrinsic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_ir::FunctionBuilder;
    use cards_net::SimTransport;

    #[test]
    fn returning_frames_pop_their_stack_slots() {
        let mut m = Module::new("slots");
        let mut b = FunctionBuilder::new("bump", vec![Type::I64], Type::I64);
        let slot = b.alloca(Type::I64);
        b.store(slot, b.arg(0), Type::I64);
        let v = b.load(slot, Type::I64);
        let r = b.add(v, b.iconst(1));
        b.ret(r);
        m.add_function(b.finish());
        let mut vm = Vm::new(
            m,
            RuntimeConfig::new(1 << 20, 1 << 20),
            SimTransport::default(),
            RemotingPolicy::Linear,
            100,
        );
        let len = vm.native.len();
        let mut per_call = None;
        for _ in 0..10_000 {
            let c0 = vm.metrics().cycles;
            assert_eq!(vm.run("bump", &[41]).unwrap(), Some(42));
            let c = vm.metrics().cycles - c0;
            assert_eq!(*per_call.get_or_insert(c), c, "modeled cost per call");
            assert_eq!(vm.native.len(), len, "stack slot leaked");
        }
    }
}
