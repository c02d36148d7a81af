(** Virtual-time message passing, in the spirit of the V kernel's IPC.

    A mailbox is a FIFO of messages stamped with their send times; a
    receive at time [now] delivers the oldest message sent at or before
    [now], or reports when the next one arrives. *)

type 'a t

type 'a receive_result =
  | Message of 'a
  | Empty  (** nothing in flight *)
  | Arrives_at of int  (** a message exists but was sent in the future *)

val make : unit -> 'a t

val length : 'a t -> int

val sends : 'a t -> int

val send : 'a t -> now:int -> 'a -> unit

val receive : 'a t -> now:int -> 'a receive_result
