(* Virtual-time message passing, in the spirit of the V kernel's IPC.

   MS uses the V interprocess-communication mechanism (together with a
   global flag) to synchronize scavenges; the display controller and input
   devices are also reached through messages.  A mailbox is a FIFO of
   messages stamped with the virtual time at which they were sent; a
   receive at time [now] delivers the oldest message whose send time is at
   or before [now], or reports when the next one will arrive. *)

type 'a t = {
  queue : (int * 'a) Queue.t;  (* (send_time, payload) *)
  mutable sends : int;
}

type 'a receive_result =
  | Message of 'a
  | Empty                 (* nothing in flight *)
  | Arrives_at of int     (* a message exists but was sent in the future *)

let make () = { queue = Queue.create (); sends = 0 }

let length t = Queue.length t.queue
let sends t = t.sends

let send t ~now payload =
  t.sends <- t.sends + 1;
  Queue.add (now, payload) t.queue

let receive t ~now =
  match Queue.peek_opt t.queue with
  | None -> Empty
  | Some (sent, _) when sent > now -> Arrives_at sent
  | Some (_, _) ->
      let _, payload = Queue.pop t.queue in
      Message payload
