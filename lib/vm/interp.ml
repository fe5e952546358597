(* CFG interpreter.

   Executes a lowered program against an input, optionally reporting every
   executed block, intra-function arc, and call to an observer.  The same
   machinery serves three purposes:
   - plain execution (workload correctness tests),
   - execution profiling (paper step 1; see [Profile]),
   - dynamic trace generation for the cache simulation (see [Sim]).

   Dynamic instruction counts use [Cfg.instr_count], so the code-scaling
   transform is reflected in the fetch stream without changing semantics. *)

open Ir

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

type observer = {
  on_block : int -> Cfg.label -> unit; (* fid, label: block is executed *)
  on_arc : int -> Cfg.label -> Cfg.label -> unit; (* fid, src, dst *)
  on_call : int -> Cfg.label -> int -> unit; (* caller fid, block, callee *)
}

let null_observer =
  {
    on_block = (fun _ _ -> ());
    on_arc = (fun _ _ _ -> ());
    on_call = (fun _ _ _ -> ());
  }

type result = {
  return_value : int;
  dyn_insns : int; (* instruction fetches, honoring size overrides *)
  dyn_blocks : int;
  dyn_calls : int; (* dynamic function calls *)
  dyn_branches : int; (* control transfers other than call/return *)
  io : Io.t;
}

type frame = {
  caller_fid : int;
  caller_regs : int array;
  ret_dst : int; (* destination register, -1 for none *)
  ret_label : Cfg.label; (* continuation block in the caller *)
  ret_label_src : Cfg.label; (* block that issued the call *)
}

type state = {
  prog : Prog.program;
  mem : Memory.t;
  io : Io.t;
  obs : observer;
  mutable heap : int;
  mutable fuel : int;
  mutable insns : int;
  mutable blocks : int;
  mutable calls : int;
  mutable branches : int;
}

let ev regs = function Insn.Reg r -> regs.(r) | Insn.Imm n -> n

let exec_intrin st regs intr dst args =
  let value =
    match (intr, args) with
    | Insn.Getc, [ s ] -> Io.getc st.io (ev regs s)
    | Insn.Putc, [ s; b ] ->
      Io.putc st.io (ev regs s) (ev regs b);
      0
    | Insn.Stream_len, [ s ] -> Io.stream_len st.io (ev regs s)
    | Insn.Arg, [ idx ] -> Io.arg st.io (ev regs idx)
    | Insn.Alloc, [ n ] ->
      let n = ev regs n in
      if n < 0 then fault "alloc of negative size %d" n;
      let addr = st.heap in
      st.heap <- (st.heap + n + 3) land lnot 3;
      (* Touch the last byte so the memory grows eagerly. *)
      if n > 0 then Memory.write8 st.mem (addr + n - 1) 0;
      addr
    | Insn.Abort, _ -> fault "abort intrinsic executed"
    | (Insn.Getc | Insn.Putc | Insn.Stream_len | Insn.Arg | Insn.Alloc), _ ->
      fault "intrinsic %s: wrong arity" (Insn.intrinsic_name intr)
  in
  match dst with Some r -> regs.(r) <- value | None -> ()

let exec_insn st regs insn =
  match insn with
  | Insn.Mov (d, o) -> regs.(d) <- ev regs o
  | Insn.Bin (op, d, a, b) ->
    let a = ev regs a and b = ev regs b in
    if (op = Insn.Div || op = Insn.Rem) && b = 0 then
      fault "division by zero";
    regs.(d) <- Insn.eval_binop op a b
  | Insn.Load8 (d, b, o) -> regs.(d) <- Memory.read8 st.mem (ev regs b + ev regs o)
  | Insn.Load32 (d, b, o) ->
    regs.(d) <- Memory.read32 st.mem (ev regs b + ev regs o)
  | Insn.Store8 (b, o, value) ->
    Memory.write8 st.mem (ev regs b + ev regs o) (ev regs value)
  | Insn.Store32 (b, o, value) ->
    Memory.write32 st.mem (ev regs b + ev regs o) (ev regs value)
  | Insn.Intrin (intr, dst, args) -> exec_intrin st regs intr dst args

let run ?(observer = null_observer) ?block_sink ?(fuel = 2_000_000_000)
    (prog : Prog.program) (input : Io.input) : result =
  (* A block sink is a second, lightweight block observer used by the
     streaming trace path: composing it into the observer here keeps the
     hot loop at exactly one indirect call per block when no sink is
     attached. *)
  let observer =
    match block_sink with
    | None -> observer
    | Some sink ->
      {
        observer with
        on_block =
          (fun fid label ->
            observer.on_block fid label;
            sink fid label);
      }
  in
  let io = Io.of_input input in
  let st =
    {
      prog;
      mem = Memory.of_program prog;
      io;
      obs = observer;
      heap = prog.heap_base;
      fuel;
      insns = 0;
      blocks = 0;
      calls = 0;
      branches = 0;
    }
  in
  (* The explicit call stack; returning from the entry function ends the
     program. *)
  let stack = ref [] in
  let fid = ref prog.entry in
  let func = ref prog.funcs.(!fid) in
  let regs = ref (Array.make !func.nregs 0) in
  let label = ref 0 in
  let return_value = ref 0 in
  let running = ref true in
  while !running do
    let b = !func.blocks.(!label) in
    st.obs.on_block !fid !label;
    let cost = Cfg.instr_count b in
    st.insns <- st.insns + cost;
    st.blocks <- st.blocks + 1;
    st.fuel <- st.fuel - cost;
    if st.fuel < 0 then fault "out of fuel (%d instructions executed)" st.insns;
    let body = b.Cfg.insns in
    for i = 0 to Array.length body - 1 do
      exec_insn st !regs (Array.unsafe_get body i)
    done;
    match b.Cfg.term with
    | Cfg.Jump l ->
      st.branches <- st.branches + 1;
      st.obs.on_arc !fid !label l;
      label := l
    | Cfg.Br (o, t, f) ->
      st.branches <- st.branches + 1;
      let l = if ev !regs o <> 0 then t else f in
      st.obs.on_arc !fid !label l;
      label := l
    | Cfg.Switch (o, cases, default) ->
      st.branches <- st.branches + 1;
      let scrutinee = ev !regs o in
      let n = Array.length cases in
      let i = ref 0 in
      while !i < n && fst (Array.unsafe_get cases !i) <> scrutinee do
        incr i
      done;
      let l = if !i < n then snd (Array.unsafe_get cases !i) else default in
      st.obs.on_arc !fid !label l;
      label := l
    | Cfg.Ret o -> (
      let value = match o with Some o -> ev !regs o | None -> 0 in
      match !stack with
      | [] ->
        return_value := value;
        running := false
      | fr :: rest ->
        stack := rest;
        (* The intra-function arc from the call block to its return
           continuation is recorded when the call returns. *)
        st.obs.on_arc fr.caller_fid fr.ret_label_src fr.ret_label;
        fid := fr.caller_fid;
        func := prog.funcs.(!fid);
        regs := fr.caller_regs;
        if fr.ret_dst >= 0 then !regs.(fr.ret_dst) <- value;
        label := fr.ret_label)
    | Cfg.Call { callee; args; dst; ret_to } ->
      st.calls <- st.calls + 1;
      let callee_fid = prog.callees.(!fid).(!label) in
      if callee_fid < 0 then raise (Prog.Unknown_function callee);
      st.obs.on_call !fid !label callee_fid;
      let callee_func = prog.funcs.(callee_fid) in
      let callee_regs = Array.make callee_func.nregs 0 in
      List.iteri
        (fun i o ->
          if i < callee_func.nparams then callee_regs.(i) <- ev !regs o)
        args;
      stack :=
        {
          caller_fid = !fid;
          caller_regs = !regs;
          ret_dst = (match dst with Some r -> r | None -> -1);
          ret_label = ret_to;
          ret_label_src = !label;
        }
        :: !stack;
      fid := callee_fid;
      func := callee_func;
      regs := callee_regs;
      label := 0
  done;
  {
    return_value = !return_value;
    dyn_insns = st.insns;
    dyn_blocks = st.blocks;
    dyn_calls = st.calls;
    dyn_branches = st.branches;
    io;
  }
