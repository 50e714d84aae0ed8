"""The outcome of a call, as behaviour tables compare it: what it
returns, or the exact type of the exception it raises."""


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as e:  # the kind of error is part of the contract
        return type(e)
