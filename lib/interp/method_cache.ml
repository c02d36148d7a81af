(* The method-lookup cache.

   "Most Smalltalk implementations rely heavily on software method-lookup
   caches to achieve acceptable performance" — more than 10% of bytecodes
   need a lookup.  MS first serialized one shared cache with a two-level
   locking scheme, found the contention made the system "much too slow",
   and replicated the cache per processor instead (paper, section 3.2).

   Both variants are provided.  [Replicated] is a plain per-processor
   direct-mapped table (with a small extra indirection cost charged by the
   interpreter); [Shared_locked] is one table whose every probe passes
   through a read lock on the shared timeline, reproducing the contention
   the paper observed.  Every scavenge (entries hold oops into new space)
   and every method (re)installation flushes every cache, but lazily: a
   flush only marks the table stale, and the next probe or fill on it
   clears it first.  After a scavenge only the few processors that run
   ever read their table, so most flushes cost one store. *)

type mode =
  | Replicated
  | Shared_locked of Spinlock.t

let cache_size = 512  (* entries; power of two *)

type table = {
  sels : Oop.t array;
  clss : Oop.t array;
  meths : Oop.t array;
  mutable stale : bool;  (* flushed since last cleared *)
}

type t = {
  mode : mode;
  table : table;             (* per-interpreter, or the shared one *)
  owner : int;               (* owning vp when replicated; -1 = shared *)
  sanitizer : Sanitizer.t;
  san_id : Sanitizer.id;     (* "method cache" in [sanitizer] *)
  mutable hits : int;
  mutable misses : int;
  mutable finish : int;      (* completion time of the last [probe] *)
}

let make_table () = {
  sels = Array.make cache_size Oop.sentinel;
  clss = Array.make cache_size Oop.sentinel;
  meths = Array.make cache_size Oop.sentinel;
  stale = false;
}

let create_replicated ~owner ~sanitizer =
  { mode = Replicated; table = make_table (); owner; sanitizer;
    san_id = Sanitizer.id sanitizer "method cache"; hits = 0; misses = 0;
    finish = 0 }

(* All interpreters share [table] and [lock]; per-interpreter [t] values
   keep their own statistics. *)
let create_shared ~sanitizer ~lock ~table =
  { mode = Shared_locked lock; table; owner = -1; sanitizer;
    san_id = Sanitizer.id sanitizer "method cache"; hits = 0; misses = 0;
    finish = 0 }

(* A replicated cache belongs to one interpreter.  [flush] is exempt: the
   scavenger and method installation flush every cache cross-processor by
   design (stop-the-world, or the install broadcast). *)
let check_owner t ~vp ~now =
  match t.mode with
  | Replicated ->
      Sanitizer.check_owner t.sanitizer ~resource:t.san_id ~owner:t.owner ~vp
        ~now
  | Shared_locked _ -> ()

let slot sel cls = (sel lxor (cls * 0x9e3779b1)) land (cache_size - 1)

let flush t = t.table.stale <- true

(* Clear a flushed table before its first use: every probe then misses
   and every fill lands in an empty table, exactly as after an eager
   flush.  The shared table carries one flag for all its views. *)
let clear_if_stale tbl =
  if tbl.stale then begin
    Array.fill tbl.sels 0 cache_size Oop.sentinel;
    Array.fill tbl.clss 0 cache_size Oop.sentinel;
    Array.fill tbl.meths 0 cache_size Oop.sentinel;
    tbl.stale <- false
  end

let read t tbl i ~sel ~cls =
  if Oop.equal tbl.sels.(i) sel && Oop.equal tbl.clss.(i) cls then begin
    t.hits <- t.hits + 1;
    tbl.meths.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    Oop.sentinel
  end

let write tbl i ~sel ~cls ~meth =
  tbl.sels.(i) <- sel;
  tbl.clss.(i) <- cls;
  tbl.meths.(i) <- meth

(* Probe: answers the cached method, or [Oop.sentinel] on a miss, and
   leaves the completion time (lock time included for the shared
   variant) in [t.finish].  Every send that reaches the cache probes, so
   a probe allocates nothing, and only the replicated probe is inlined
   into the send path. *)
let[@inline never] probe_shared t lock ~vp ~now tbl i ~sel ~cls =
  Spinlock.enter lock ~vp ~now ~op_cycles:4;
  let meth = read t tbl i ~sel ~cls in
  t.finish <- Spinlock.leave lock ~vp;
  meth

let probe ~vp t ~now ~sel ~cls =
  check_owner t ~vp ~now;
  let i = slot sel cls in
  let tbl = t.table in
  clear_if_stale tbl;
  match t.mode with
  | Replicated ->
      t.finish <- now;
      read t tbl i ~sel ~cls
  | Shared_locked lock -> probe_shared t lock ~vp ~now tbl i ~sel ~cls

(* Only a miss fills, so the fill stays out of line. *)
let[@inline never] fill ~vp t ~now ~sel ~cls ~meth =
  check_owner t ~vp ~now;
  let i = slot sel cls in
  let tbl = t.table in
  clear_if_stale tbl;
  match t.mode with
  | Replicated ->
      write tbl i ~sel ~cls ~meth;
      now
  | Shared_locked lock ->
      Spinlock.enter lock ~vp ~now ~op_cycles:6;
      write tbl i ~sel ~cls ~meth;
      Spinlock.leave lock ~vp

let finish t = t.finish
let hits t = t.hits
let misses t = t.misses
